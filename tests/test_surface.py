"""Every public function and class of the package has a reader outside its own def.

A top-level public name of ``src/nfsense/*.py`` must be used by another
top-level statement of the package, or by the benchmark (``bench/*.py``,
which also names the functions it wraps as strings).  A name that only
tests read belongs in the tests.
"""

import ast
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


def test_every_public_name_has_a_reader():
    bench = set().union(*(names_in(ast.parse(p.read_text()))
                          for p in (ROOT / "bench").glob("*.py")))
    # (module, top-level statement, the names it reads) across the package
    statements = [(p.stem, node, names_in(node))
                  for p in sorted((ROOT / "src" / "nfsense").glob("*.py"))
                  for node in ast.parse(p.read_text()).body]
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
