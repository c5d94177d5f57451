"""The text formats: key=value files and numeric tables.

Run configs, scene files and the model header are key=value text:
one ``key=value`` per line, each key at most once; blank lines and ``#``
comments are skipped.  A value is read and written by the annotation of the
dataclass field it fills: a float is finite and written ``.9g``, an int or
str as is, a bool as 0/1, ``tuple[int, ...]`` as ``1,2,4`` and hold
intervals as ``a:b;c:d``.
Annotations are compared as text, since every module postpones them.
Errors name the file (or other source) and the key.

Numeric tables (CSI series, sample times, spectrograms, rasters) are
written by :func:`format_table`, one ``%`` over all values.  Dataset pairs,
whose masked copies repeat their label's values, are written by
:func:`format_rows`, which converts each distinct value once.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Iterable, Sequence

import numpy as np


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _bool(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError("expected 0 or 1")
    return text == "1"


def _holds(text: str) -> tuple[tuple[float, float], ...]:
    return tuple((_finite(a), _finite(b))
                 for a, b in (token.split(":") for token in text.split(";"))) if text else ()


# annotation -> (parse, format)
_CODECS: dict[str, tuple[Callable[[str], Any], Callable[[Any], str]]] = {
    "float": (_finite, lambda v: f"{v:.9g}"),
    "int": (int, str),
    "str": (str, str),
    "bool": (_bool, lambda v: str(int(v))),
    "tuple[int, ...]": (lambda text: tuple(int(d) for d in text.split(",")),
                        lambda v: ",".join(str(d) for d in v)),
    "tuple[tuple[float, float], ...]": (
        _holds, lambda v: ";".join(f"{a:.9g}:{b:.9g}" for a, b in v)),
}


def parse_lines(lines: Iterable[str], path, first_line: int = 1) -> dict[str, str]:
    """key -> value text of ``lines``, the first of which is line ``first_line``.

    A key given twice is an error naming both line numbers.
    """
    kv: dict[str, str] = {}
    seen: dict[str, int] = {}
    for number, raw in enumerate(lines, first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(f"{path}: malformed line {line!r} (expected key=value)")
        if key in seen:
            raise ValueError(f"{path}: key {key!r} repeated on lines {seen[key]} and {number}")
        seen[key] = number
        kv[key] = value.strip()
    return kv


def read(path) -> dict[str, str]:
    with open(path) as fh:
        return parse_lines(fh, path)


def parse(kind: str, text: str, key: str, path) -> Any:
    """``text`` read as annotation ``kind``."""
    try:
        return _CODECS[kind][0](text)
    except ValueError as exc:
        raise ValueError(f"{path}: bad config value {key}={text!r}: {exc}") from None


def build(cls, kv: dict[str, str], prefix: str, path, required: bool = False,
          **supplied: Any):
    """An instance of dataclass ``cls`` read from the keys ``prefix + field``.

    Fields in ``supplied`` are not read.  A missing key takes the field's
    default; it is an error if the field has none or ``required`` is set.
    """
    values = dict(supplied)
    for f in dataclasses.fields(cls):
        if f.name in supplied:
            continue
        key = prefix + f.name
        if key in kv:
            values[f.name] = parse(f.type, kv[key], key, path)
        elif required or (f.default is dataclasses.MISSING
                          and f.default_factory is dataclasses.MISSING):
            raise ValueError(f"{path}: bad config: missing key {key!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: bad config: {exc}") from None


def lines(prefix: str, obj, names: Iterable[str] | None = None) -> list[str]:
    """``prefix + field=value`` lines of dataclass ``obj`` (only ``names`` if given)."""
    return [f"{prefix}{f.name}={_CODECS[f.type][1](getattr(obj, f.name))}"
            for f in dataclasses.fields(obj) if names is None or f.name in names]


def format_table(a: np.ndarray, row_fmt: str) -> str:
    """The text of 2-D ``a`` (or 1-D, a value per row): ``row_fmt % row`` per row.

    ``row_fmt`` holds one ``%`` field per column and the line end.  Values
    are formatted as Python floats, which gives the bytes of
    ``np.savetxt`` and of ``f"{v:...}"`` on numpy scalars.
    """
    return row_fmt * len(a) % tuple(np.ravel(a).tolist())


def format_rows(arrays: Sequence[np.ndarray], fmt: str) -> list[str]:
    """The text of each 2-D array: a line per row of ``fmt % v`` values joined by spaces.

    Each distinct value of all the arrays is converted once, told apart by
    its bits, so -0.0 stays -0.0.  This pays only for arrays that share
    values, such as the masked copies of one label; ``format_table``, one
    ``%`` over every value, is faster on arrays whose values seldom repeat.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    words = np.array([fmt % v for v in bits.view(np.float64).tolist()], dtype=object)
    texts, start = [], 0
    for a in arrays:
        rows, cols = a.shape
        w = words[inverse[start:start + a.size]].tolist()
        texts.append("".join(" ".join(w[i * cols:(i + 1) * cols]) + "\n" for i in range(rows)))
        start += a.size
    return texts
