"""Scalar reference for the exact capacity searches.

``radial_series``, ``mirror_series``, ``_headroom``, ``n_max_exact`` and
``delta_d_min_exact`` below are the one-query-at-a-time implementation that
``nfsense.capacity`` used before its searches ran over a whole r sweep at
once, copied verbatim.  ``capacity_rows`` rebuilds a ``capacity_curve``
sweep from them.  ``tests/test_capacity.py`` checks the package against
them bit for bit.  ``radial_fit`` and ``mirror_fit`` are the paper's fitted
closed forms of the two series, which the tests hold to the exact series.
"""

from __future__ import annotations

import math

import numpy as np

from nfsense.capacity import (DEFAULT_FIT, CapacityQuery, CapacityRow, FitParams,
                              delta_d_min, n_max)
from nfsense.geometry import RadioConfig

_N_SEARCH_CAP = 1_000_000


def radial_series(n: int, alpha: float) -> float:
    """Interference series of the radial layout: sum_{j=1}^{N-1} sin(j pi / N)^-alpha."""
    if n < 3:
        raise ValueError(f"radial layout needs N >= 3, got {n}")
    j = np.arange(1, n)
    return float(np.sum(np.sin(j * np.pi / n) ** (-alpha)))


def mirror_series(k: int, phi: float, alpha: float) -> float:
    """Interference series of the mirror layout: sum_{j=1}^{K} sin(j phi / 2)^-alpha.

    ``phi`` is the angular spacing of neighbors; the middle subject is the
    worst-interfered one only while (2K+1) phi < 2 pi, so that is the domain.
    """
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    phi_max = 2.0 * np.pi / (2 * k + 1)
    if not (0.0 < phi <= phi_max * (1 + 1e-12)):
        raise ValueError(f"phi must be in (0, 2pi/(2K+1)] = (0, {phi_max:.6g}], got {phi}")
    j = np.arange(1, k + 1)
    return float(np.sum(np.sin(j * phi / 2.0) ** (-alpha)))


def radial_fit(n: int, params: FitParams = DEFAULT_FIT) -> float:
    """Fitted radial series: p1 * N^p2 + p3."""
    if n < 3:
        raise ValueError(f"radial layout needs N >= 3, got {n}")
    return params.p1 * float(n) ** params.p2 + params.p3


def mirror_fit(phi: float, params: FitParams = DEFAULT_FIT) -> float:
    """Fitted mirror series: q1 * sin(phi/2)^q2 + q3."""
    return params.q1 * math.sin(phi / 2.0) ** params.q2 + params.q3


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


def n_max_exact(q: CapacityQuery) -> int:
    """Exact-search companion of :func:`n_max` using the direct series."""
    cfg = q.cfg
    a = _headroom(q)
    if a <= 0.0:
        return 0
    rhs = (2.0 * q.r) ** cfg.alpha * a / (cfg.g_tilde * q.beta)
    if radial_series(3, cfg.alpha) > rhs:
        return 0
    lo, hi = 3, 6
    while radial_series(hi, cfg.alpha) <= rhs:
        lo = hi
        hi *= 2
        if hi > _N_SEARCH_CAP:
            raise OverflowError(f"exact N search exceeded {_N_SEARCH_CAP}")
    # invariant: series(lo) <= rhs < series(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if radial_series(mid, cfg.alpha) <= rhs:
            lo = mid
        else:
            hi = mid
    return lo


def delta_d_min_exact(q: CapacityQuery, rel_tol: float = 1e-12) -> float:
    """Bisection companion of :func:`delta_d_min` using the direct series."""
    cfg = q.cfg
    a = _headroom(q)
    if a <= 0.0:
        return math.nan
    # VIR >= beta  <=>  mirror_series(K, phi) <= rhs; the series decreases in phi.
    rhs = (2.0 * q.r) ** cfg.alpha * a / (2.0 * cfg.g_tilde * q.beta)
    phi_hi = 2.0 * math.pi / (2 * q.K + 1)
    if mirror_series(q.K, phi_hi, cfg.alpha) > rhs:
        return math.nan
    phi_lo = 1e-12
    if mirror_series(q.K, phi_lo, cfg.alpha) <= rhs:
        return 2.0 * q.r * math.sin(phi_lo / 2.0)
    while (phi_hi - phi_lo) > rel_tol * phi_hi:
        mid = 0.5 * (phi_lo + phi_hi)
        if mirror_series(q.K, mid, cfg.alpha) <= rhs:
            phi_hi = mid
        else:
            phi_lo = mid
    return 2.0 * q.r * math.sin(phi_hi / 2.0)


def capacity_rows(cfg: RadioConfig, beta: float, delta_r: float,
                  r_start: float, r_stop: float, r_step: float,
                  k: int = 2, params: FitParams = DEFAULT_FIT) -> list[CapacityRow]:
    """The rows ``capacity_curve`` built, one scalar search pair per r."""
    rows: list[CapacityRow] = []
    n_points = int(math.floor((r_stop - r_start) / r_step + 1e-9)) + 1
    for i in range(max(n_points, 0)):
        r = r_start + i * r_step
        if r <= delta_r:
            continue
        q = CapacityQuery(r=r, delta_r=delta_r, beta=beta, cfg=cfg, K=k)
        dd_fit = delta_d_min(q, params)
        rows.append(CapacityRow(
            r=r,
            n_max_fit=n_max(q, params),
            n_max_exact=n_max_exact(q),
            dd_min_fit=dd_fit,
            dd_min_exact=delta_d_min_exact(q),
            feasible=not math.isnan(dd_fit),
        ))
    return rows
