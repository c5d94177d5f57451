"""The text formats: key=value files and numeric tables.

Run configs, scene files and the model header are key=value text:
one ``key=value`` per line, each key at most once; blank lines and ``#``
comments are skipped.  A value is read and written by the annotation of the
dataclass field it fills: a float is finite and written ``.9g``, an int or
str as is, ``tuple[int, ...]`` as ``1,2,4`` and hold intervals as
``a:b;c:d``.
Annotations are compared as text, since every module postpones them.
Errors name the file (or other source) and the key.

Numeric tables (CSI series, spectrograms, rasters, dataset labels) are
written by :func:`format_table`, one ``%`` over all values, and the CSI,
spectrogram and label readers parse the values with :func:`read_table`.
The CSV outputs are written by :func:`write_csv`, and the registration
script is read by :func:`parse_csv`.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Any, Callable, Iterable, Sequence

import numpy as np


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _holds(text: str) -> tuple[tuple[float, float], ...]:
    return tuple((_finite(a), _finite(b))
                 for a, b in (token.split(":") for token in text.split(";"))) if text else ()


# annotation -> (parse, format)
_CODECS: dict[str, tuple[Callable[[str], Any], Callable[[Any], str]]] = {
    "float": (_finite, lambda v: f"{v:.9g}"),
    "int": (int, str),
    "str": (str, str),
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
    try:
        with open(path) as fh:
            return parse_lines(fh, path)
    except UnicodeDecodeError as exc:    # a ValueError, but one that does not name the file
        raise ValueError(f"{path}: not text: {exc}") from None


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
    default; it is an error if the field has none or ``required`` is set.  A
    value the dataclass rejects is reported under ``prefix``.
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
        where = f" {prefix.rstrip('.')}" if prefix else ""
        raise ValueError(f"{path}: bad config{where}: {exc}") from None


def lines(prefix: str, obj, names: Iterable[str] | None = None) -> list[str]:
    """``prefix + field=value`` lines of dataclass ``obj`` (only ``names`` if given)."""
    return [f"{prefix}{f.name}={_CODECS[f.type][1](getattr(obj, f.name))}"
            for f in dataclasses.fields(obj) if names is None or f.name in names]


# Finite values from here up print, at the 10 significant digits of ``%.9e``
# and ``%.10g``, as text above the largest double, which reads back as inf.
TEXT_MAX = 1.7976931345e308


def check_text_range(path, *arrays) -> None:
    """Refuse, naming ``path``, a finite value that 10 digits would write as inf."""
    for a in arrays:
        a = np.abs(np.asarray(a, dtype=float))
        big = a[(a >= TEXT_MAX) & (a < np.inf)]
        if big.size:
            raise ValueError(f"{path}: |value| {float(big[0])!r} is at least {TEXT_MAX!r}; "
                             f"10 digits would write it as inf")


def format_table(a: np.ndarray, row_fmt: str) -> str:
    """The text of 2-D ``a`` (or 1-D, a value per row): ``row_fmt % row`` per row.

    ``row_fmt`` holds one ``%`` field per column and the line end.  Values
    are formatted as Python floats, which gives the bytes of
    ``np.savetxt`` and of ``f"{v:...}"`` on numpy scalars.
    """
    return row_fmt * len(a) % tuple(np.ravel(a).tolist())


def read_table(path, lines: Iterable[str], delimiter: str | None = None,
               what: str = "") -> np.ndarray:
    """The 2-D array ``np.loadtxt`` reads from ``lines``; no values give an empty one.

    Every error names ``path``, and ``what`` opens a parse error's reason.
    NaN and inf are refused; ``#`` starts no comment.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # an input with no values only warns
            data = np.loadtxt(lines, delimiter=delimiter, ndmin=2, comments=None)
    except ValueError as exc:    # UnicodeDecodeError included
        raise ValueError(f"{path}: {what}{exc}") from None
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value")
    return data


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write ``header``, then each row's fields as ``str`` joined by commas; every line ends in LF."""
    with open(path, "w") as fh:
        fh.write("".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))


def parse_csv(lines: Iterable[str], header: Sequence[str], path) -> list[tuple[int, list[str]]]:
    """(line number, stripped fields) of each non-blank row below the line ``header``.

    Another first line, or a row without a field per header name, is an
    error naming ``path`` (and the line).
    """
    first, rows = ",".join(header), []
    try:
        lines = iter(lines)
        if next(lines, "").strip() != first:
            raise ValueError(f"{path}: first line must be the header {first}")
        for number, line in enumerate(lines, 2):
            if not line.strip():
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != len(header):
                raise ValueError(f"{path}: line {number}: expected {len(header)} fields "
                                 f"{first}, got {len(fields)}")
            rows.append((number, fields))
    except UnicodeDecodeError as exc:    # a ValueError, but one that does not name the file
        raise ValueError(f"{path}: not text: {exc}") from None
    return rows
