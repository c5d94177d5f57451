"""Closed-form multi-person capacity bounds with exact-series companions.

Two symmetric layouts are analyzed: N subjects uniformly spaced on a circle
of radius r around the AP (how many fit?), and 2K+1 subjects bunched together
on that circle (how close can neighbors sit?).  Each bound has a fitted
closed form (power-law fit of the interference series) and an exact variant
that evaluates the series directly.  The exact searches run over every r of
a sweep at once; a single query is the one-element sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kvtext
from .geometry import RadioConfig

_N_SEARCH_CAP = 1_000_000


@dataclass(frozen=True)
class FitParams:
    """Coefficients of the fitted interference series.

    Radial case: sum ~= p1 * N^p2 + p3.
    Mirror case: sum ~= q1 * sin(phi/2)^q2 + q3.
    """

    p1: float = 0.0230
    p2: float = 3.99
    p3: float = 38.0
    q1: float = 1.06
    q2: float = -4.0
    q3: float = 6.57

    def __post_init__(self) -> None:
        if not (self.p1 > 0):
            raise ValueError(f"p1 must be > 0, got {self.p1}")
        if not (self.q1 > 0):
            raise ValueError(f"q1 must be > 0, got {self.q1}")
        if not (self.q2 < 0):
            raise ValueError(f"q2 must be < 0, got {self.q2}")


# Power-law fit coefficients of the interference series for alpha = 4
# (mirror-case values are for K = 2).
DEFAULT_FIT = FitParams()


@dataclass(frozen=True)
class CapacityQuery:
    """Geometry and threshold for a capacity evaluation.

    r: AP-subject radius; delta_r: subject-UE near-field spacing;
    beta: VIR threshold; K: half-count for the mirror case (2K+1 subjects).
    """

    r: float
    delta_r: float
    beta: float
    cfg: RadioConfig
    K: int = 2

    def __post_init__(self) -> None:
        if not (self.r > self.delta_r > 0):
            raise ValueError(f"need r > delta_r > 0, got r={self.r}, delta_r={self.delta_r}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")


def radial_series(n: int, alpha: float) -> float:
    """Interference series of the radial layout: sum_{j=1}^{N-1} sin(j pi / N)^-alpha."""
    if n < 3:
        raise ValueError(f"radial layout needs N >= 3, got {n}")
    j = np.arange(1, n)
    return float(np.sum(np.sin(j * np.pi / n) ** (-alpha)))


def _mirror_sums(k: int, phi: np.ndarray, alpha: float) -> np.ndarray:
    """:func:`mirror_series` at every entry of ``phi``, one (len(phi), K) grid.

    Row i is summed alone, so it has the bits of the length-K sum at phi[i].
    """
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    phi_max = 2.0 * np.pi / (2 * k + 1)
    outside = ~((0.0 < phi) & (phi <= phi_max * (1 + 1e-12)))
    if outside.any():
        raise ValueError(f"phi must be in (0, 2pi/(2K+1)] = (0, {phi_max:.6g}], "
                         f"got {phi[outside][0]}")
    j = np.arange(1, k + 1)
    return np.sum(np.sin(j * phi[:, None] / 2.0) ** (-alpha), axis=1)


def mirror_series(k: int, phi: float, alpha: float) -> float:
    """Interference series of the mirror layout: sum_{j=1}^{K} sin(j phi / 2)^-alpha.

    ``phi`` is the angular spacing of neighbors; the middle subject is the
    worst-interfered one only while (2K+1) phi < 2 pi, so that is the domain.
    """
    return float(_mirror_sums(k, np.array([phi], dtype=float), alpha)[0])


def _headroom(q: CapacityQuery) -> float:
    """Numerator slack of the VIR >= beta condition, common to both layouts.

    g_tilde * delta_r^-alpha - eta lambda^2 beta - b r^alpha beta: what the
    subject's own variation power leaves for interference after the dynamic
    channel takes its share.
    """
    cfg = q.cfg
    return (cfg.g_tilde * q.delta_r ** (-cfg.alpha)
            - cfg.eta * cfg.lambda_m ** 2 * q.beta
            - cfg.b * q.r ** cfg.alpha * q.beta)


def n_max(q: CapacityQuery, params: FitParams = DEFAULT_FIT) -> int:
    """Upper bound on subject count in the radial layout (0 when infeasible)."""
    cfg = q.cfg
    inner = ((2.0 * q.r) ** cfg.alpha / params.p1
             * _headroom(q) / (cfg.g_tilde * q.beta)
             - params.p3 / params.p1)
    if inner <= 0.0:
        return 0
    n = inner ** (1.0 / params.p2)
    return int(math.floor(n)) if n >= 3.0 else 0


def _search_rhs(qs: Sequence[CapacityQuery], share: float) -> tuple[np.ndarray, np.ndarray]:
    """(live, rhs) per query, where VIR >= beta <=> series <= rhs.

    live is False where headroom <= 0, an infeasible query.
    rhs = (2r)^alpha * headroom / (share * g_tilde * beta); ``share`` is 2
    in the mirror layout, whose subject has interferers on both sides.  Each
    query is evaluated in Python floats, so every power is libm ``pow``.
    """
    a = [_headroom(q) for q in qs]
    rhs = [(2.0 * q.r) ** q.cfg.alpha * h / (share * q.cfg.g_tilde * q.beta)
           for q, h in zip(qs, a)]
    return ~(np.array(a) <= 0.0), np.array(rhs)


def _n_max_search(qs: Sequence[CapacityQuery]) -> list[int]:
    """Exact N_max of every query (all share ``cfg``): one search over them all.

    Per query: 0 when infeasible, else double hi from 6 while series(hi) <=
    rhs, then bisect the integers keeping series(lo) <= rhs < series(hi).
    """
    alpha = qs[0].cfg.alpha
    series = {3: radial_series(3, alpha)}    # one evaluation per distinct N

    def at(n: np.ndarray) -> np.ndarray:
        ns = n.tolist()
        for v in ns:
            if v not in series:
                series[v] = radial_series(v, alpha)
        return np.array([series[v] for v in ns])

    live, rhs = _search_rhs(qs, 1.0)
    live &= ~(series[3] > rhs)
    lo = np.full(len(qs), 3)
    hi = np.full(len(qs), 6)
    idx = np.flatnonzero(live)
    while idx.size:
        idx = idx[at(hi[idx]) <= rhs[idx]]
        lo[idx] = hi[idx]
        hi[idx] *= 2
        if idx.size and hi[idx].max() > _N_SEARCH_CAP:
            q = qs[idx[np.argmax(hi[idx])]]
            raise OverflowError(f"exact N search exceeded {_N_SEARCH_CAP} at r={q.r:g} m "
                                f"with b={q.cfg.b:g} (radio.b)")
    # invariant: series(lo) <= rhs < series(hi)
    idx = np.flatnonzero(live & (hi - lo > 1))
    while idx.size:
        mid = (lo[idx] + hi[idx]) // 2
        below = at(mid) <= rhs[idx]
        lo[idx[below]] = mid[below]
        hi[idx[~below]] = mid[~below]
        idx = idx[hi[idx] - lo[idx] > 1]
    return np.where(live, lo, 0).tolist()


def n_max_exact(q: CapacityQuery) -> int:
    """Exact-search companion of :func:`n_max` using the direct series.

    The one-query case of the sweep search :func:`capacity_curve` runs.
    """
    return _n_max_search([q])[0]


def delta_d_min(q: CapacityQuery, params: FitParams = DEFAULT_FIT) -> float:
    """Minimum neighbor spacing in the mirror layout; NaN when infeasible.

    Infeasible means the fit's inner expression is non-positive, or the bound
    exceeds 2r sin(pi/(2K+1)) where the middle subject stops being the
    worst-interfered one and the layout assumption breaks.
    """
    cfg = q.cfg
    inner = ((2.0 * q.r) ** cfg.alpha / params.q1
             * _headroom(q) / (2.0 * cfg.g_tilde * q.beta)
             - params.q3 / params.q1)
    if inner <= 0.0:
        return math.nan
    dd = 2.0 * q.r * inner ** (1.0 / params.q2)
    if dd > 2.0 * q.r * math.sin(math.pi / (2 * q.K + 1)):
        return math.nan
    return dd


def _dd_min_search(qs: Sequence[CapacityQuery], rel_tol: float = 1e-12) -> list[float]:
    """Exact delta-d_min of every query (all share ``cfg`` and K): one bisection.

    VIR >= beta <=> mirror series(phi) <= rhs, and the series decreases in
    phi.  Per query: NaN when infeasible even at the largest phi, the floor
    phi = 1e-12 when that already clears rhs, else bisect until
    (hi - lo) <= rel_tol * hi; a query that stops is left alone after.
    """
    k, alpha = qs[0].K, qs[0].cfg.alpha
    live, rhs = _search_rhs(qs, 2.0)
    phi_lo, phi_hi = 1e-12, 2.0 * math.pi / (2 * k + 1)
    live &= ~(mirror_series(k, phi_hi, alpha) > rhs)
    floor = live & (mirror_series(k, phi_lo, alpha) <= rhs)
    lo = np.full(len(qs), phi_lo)
    hi = np.where(floor, phi_lo, phi_hi)
    idx = np.flatnonzero(live & ~floor)
    while idx.size:
        mid = 0.5 * (lo[idx] + hi[idx])
        below = _mirror_sums(k, mid, alpha) <= rhs[idx]
        hi[idx[below]] = mid[below]
        lo[idx[~below]] = mid[~below]
        idx = idx[(hi[idx] - lo[idx]) > rel_tol * hi[idx]]
    return [2.0 * q.r * math.sin(phi / 2.0) if ok else math.nan
            for q, phi, ok in zip(qs, hi.tolist(), live.tolist())]


def delta_d_min_exact(q: CapacityQuery, rel_tol: float = 1e-12) -> float:
    """Bisection companion of :func:`delta_d_min` using the direct series.

    The one-query case of the sweep search :func:`capacity_curve` runs.
    """
    return _dd_min_search([q], rel_tol)[0]


@dataclass(frozen=True)
class CapacityRow:
    r: float
    n_max_fit: int
    n_max_exact: int
    dd_min_fit: float
    dd_min_exact: float
    feasible: bool


def capacity_curve(cfg: RadioConfig, beta: float, delta_r: float,
                   r_start: float, r_stop: float, r_step: float,
                   k: int = 2, params: FitParams = DEFAULT_FIT) -> list[CapacityRow]:
    """Sweep r and evaluate both bounds; infeasible points are kept as NaN/0."""
    if not (r_step > 0):
        raise ValueError(f"r_step must be > 0, got {r_step}")
    n_points = int(math.floor((r_stop - r_start) / r_step + 1e-9)) + 1
    rs = (r_start + i * r_step for i in range(max(n_points, 0)))
    qs = [CapacityQuery(r=r, delta_r=delta_r, beta=beta, cfg=cfg, K=k)
          for r in rs if r > delta_r]
    if not qs:
        return []
    rows: list[CapacityRow] = []
    for q, n_exact, dd_exact in zip(qs, _n_max_search(qs), _dd_min_search(qs)):
        dd_fit = delta_d_min(q, params)
        rows.append(CapacityRow(
            r=q.r,
            n_max_fit=n_max(q, params),
            n_max_exact=n_exact,
            dd_min_fit=dd_fit,
            dd_min_exact=dd_exact,
            feasible=not math.isnan(dd_fit),
        ))
    return rows


def write_capacity_csv(rows: Iterable[CapacityRow], path) -> None:
    kvtext.write_csv(path, ("r_m", "n_max_fit", "n_max_exact", "dd_min_fit_m",
                            "dd_min_exact_m", "feasible"),
                     ((f"{row.r:.6f}", row.n_max_fit, row.n_max_exact, f"{row.dd_min_fit:.6f}",
                       f"{row.dd_min_exact:.6f}", int(row.feasible)) for row in rows))


def _power_law_lsq(x: np.ndarray, y: np.ndarray, exponents: np.ndarray,
                   w: np.ndarray | None = None) -> tuple[float, float, float, float]:
    """Best (c1, e, c3) for y ~= c1 x^e + c3 over a grid of exponents.

    Residuals are weighted by ``w`` (default 1: weights of 1.0 are exact).
    """
    w = np.ones_like(x) if w is None else w
    yw = y * w
    best = None
    for e in exponents:
        basis = np.column_stack([x ** e, np.ones_like(x)]) * w[:, None]
        coef, *_ = np.linalg.lstsq(basis, yw, rcond=None)
        sse = float(np.sum((basis @ coef - yw) ** 2))
        if coef[0] > 0 and (best is None or sse < best[3]):
            best = (float(coef[0]), float(e), float(coef[1]), sse)
    if best is None:
        raise RuntimeError("power-law fit failed: no positive leading coefficient")
    return best


def refit_radial(alpha: float) -> tuple[float, float, float]:
    """Recompute (p1, p2, p3) by least squares over N = 3..60."""
    n = np.arange(3, 61, dtype=float)
    y = np.array([radial_series(int(v), alpha) for v in n])
    exps = np.linspace(1.0, 6.0, 501)
    c1, e, c3, _ = _power_law_lsq(n, y, exps)
    exps = np.linspace(max(e - 0.02, 1.0), e + 0.02, 401)
    c1, e, c3, _ = _power_law_lsq(n, y, exps)
    return c1, e, c3


def refit_mirror(alpha: float, k: int) -> tuple[float, float, float]:
    """Recompute (q1, q2, q3) by least squares over 200 phi from 1 degree to pi/(2k+1)."""
    phi = np.linspace(math.pi / 180, math.pi / (2 * k + 1), 200)
    s = np.sin(phi / 2.0)
    y = _mirror_sums(k, phi, alpha)
    # series values span many decades; fit in a log-flattened weighting
    c1, e, c3, _ = _power_law_lsq(s, y, np.linspace(-6.0, -2.0, 401), w=1.0 / y)
    return c1, e, c3
