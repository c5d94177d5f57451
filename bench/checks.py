"""Output checks: properties and oracles with tolerances, never stored bytes.

Each checker returns a list of problems (empty when the output is correct),
so a deliberately corrupted input shows up as a counted failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

SENTINEL = -1.0
UNITARY_TOL = 1e-9
THEOREM_TOL = 1e-6
VIR_REL_TOL = 1e-9


def digest(obj) -> str:
    """sha256 over an output: arrays (dtype, shape, bytes), dataclasses field by
    field, containers in order, anything else by ``repr``."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            _feed(h, x)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj):
            _feed(h, k)
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, bytes):
        h.update(obj)
    else:
        h.update(repr(obj).encode())


def spectrogram(spec) -> list[str]:
    """Finite, [0, 1] in data columns, exactly the sentinel in flagged columns."""
    data, flags = np.asarray(spec.data), np.asarray(spec.no_data_cols, dtype=bool)
    problems = []
    if data.ndim != 2 or flags.shape != (data.shape[1],):
        return [f"spectrogram shape {data.shape} with {flags.shape} flags"]
    if not np.all(np.isfinite(data)):
        problems.append("spectrogram holds non-finite values")
    kept = data[:, ~flags]
    if kept.size and (kept.min() < 0.0 or kept.max() > 1.0):
        problems.append(f"data columns leave [0, 1]: [{kept.min():.3g}, {kept.max():.3g}]")
    if flags.any() and not np.all(data[:, flags] == SENTINEL):
        problems.append("flagged columns do not hold exactly the -1 sentinel")
    return problems


def unit_range(values, what: str) -> list[str]:
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        return [f"{what} holds non-finite values"]
    if v.size and (v.min() < 0.0 or v.max() > 1.0):
        return [f"{what} leaves [0, 1]: [{v.min():.3g}, {v.max():.3g}]"]
    return []


def arrivals(times, duration: float, cap: int | None, max_in_window) -> list[str]:
    """Strictly increasing within [0, duration]; at most ``cap`` in any 1 s window."""
    t = np.asarray(times, dtype=float)
    problems = []
    if t.size and (np.any(np.diff(t) <= 0) or t[0] < 0 or t[-1] > duration):
        problems.append("arrivals are not strictly increasing within [0, duration]")
    if cap is not None and max_in_window(t, 1.0) > cap:
        problems.append(f"more than {cap} arrivals in a 1 s window")
    return problems


def finite(value, what: str) -> list[str]:
    return [] if math.isfinite(value) else [f"{what} is not finite: {value}"]


def vir_cells(fmap, cells, oracle, beta: float) -> list[str]:
    """Sampled raster cells against the scalar ``vir()`` oracle.

    ``oracle(row, col)`` returns (vir_subject, vir_interferer) for the cell.
    """
    problems = []
    for row, col in cells:
        want = oracle(row, col)
        got = (fmap.vir_subject[row, col], fmap.vir_interferer[row, col])
        for g, w, label in zip(got, want, ("subject", "interferer")):
            if not (g == w or abs(g - w) <= VIR_REL_TOL * abs(w)):
                problems.append(f"cell ({row},{col}) {label} VIR {g!r} != oracle {w!r}")
        feasible = bool(want[0] >= beta and want[1] >= beta)
        if bool(fmap.feasible[row, col]) != feasible:
            problems.append(f"cell ({row},{col}) feasibility flag disagrees with its VIRs")
    return problems


def unitary(v) -> list[str]:
    v = np.asarray(v)
    err = float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))))
    return [] if err <= UNITARY_TOL else [f"V is not unitary (deviation {err:.2e})"]


def direction_only(v0, v_angular, v_radial, predicted, n_cols: int) -> list[str]:
    """An angular step multiplies V0 by diag(predicted); a radial step leaves V alone.

    Checked on the ``n_cols`` steering columns; the remaining columns of a
    rank-deficient channel are an arbitrary completion of the null space.
    """
    problems = []
    want = predicted[:, None] * v0[:, :n_cols]
    err = float(np.max(np.abs(v_angular[:, :n_cols] - want)))
    if err > THEOREM_TOL:
        problems.append(f"angular step departs from diag(predicted)·V0 by {err:.2e}")
    err = float(np.max(np.abs(v_radial[:, :n_cols] - v0[:, :n_cols])))
    if err > THEOREM_TOL:
        problems.append(f"radial step changed V by {err:.2e}")
    return problems


def admissions(min_virs, beta: float) -> list[str]:
    return [f"admission {i}: min pairwise VIR {m:.6g} < beta {beta}"
            for i, m in enumerate(min_virs) if not m >= beta * (1.0 - 1e-12)]
