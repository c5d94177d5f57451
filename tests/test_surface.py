"""Every public function, class and class member of the package has a reader
outside its own def.

A top-level public name of ``src/nfsense/*.py`` must be used by another
top-level statement of the package, or by the benchmark (``bench/*.py``,
which also names the functions it wraps as strings).  A public method,
classmethod or property of a package class must be read as an attribute
somewhere in the package outside its own def, or be named by the benchmark.
A name that only tests read belongs in the tests.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Names kept without a reader yet, each with its reason.
EXPECTED_UNREAD = {
    # the CSI-vs-BFI stability statistics, which a scene-level comparison of
    # BFI and CSI sensing (ROADMAP direction 8) is to call
    "compare_csi_bfi",
}


def names_in(node) -> set[str]:
    """Every name, attribute and string constant under ``node``.

    An import is no reader: a re-export that nothing calls reads nothing.
    """
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def bench_names() -> set[str]:
    return set().union(*(names_in(ast.parse(p.read_text()))
                         for p in (ROOT / "bench").glob("*.py")))


def package_modules():
    """(module name, parsed module) for every module of the package."""
    return [(p.stem, ast.parse(p.read_text()))
            for p in sorted((ROOT / "src" / "nfsense").glob("*.py"))]


def attribute_reads(node) -> collections.Counter:
    return collections.Counter(sub.attr for sub in ast.walk(node)
                               if isinstance(sub, ast.Attribute))


def test_every_public_name_has_a_reader():
    bench = bench_names()
    # (module, top-level statement, the names it reads) across the package
    statements = [(module, node, names_in(node))
                  for module, tree in package_modules() for node in tree.body]
    public = [(module, node) for module, node, _ in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert len(public) > 50
    assert EXPECTED_UNREAD <= {node.name for _, node in public}
    unread = sorted(
        f"{module}.{node.name}" for module, node in public
        if node.name not in bench | EXPECTED_UNREAD
        and not any(node.name in names for _, other, names in statements if other is not node))
    assert unread == []


def test_every_public_member_has_a_reader():
    bench = bench_names()
    modules = package_modules()
    reads = sum((attribute_reads(tree) for _, tree in modules), collections.Counter())
    members = [(f"{module}.{cls.name}", member)
               for module, tree in modules for cls in tree.body
               if isinstance(cls, ast.ClassDef)
               for member in cls.body
               if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")]
    assert len(members) > 10
    unread = sorted(f"{owner}.{member.name}" for owner, member in members
                    if member.name not in bench
                    and reads[member.name] <= attribute_reads(member)[member.name])
    assert unread == []
