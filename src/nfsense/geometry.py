"""Planar AP/UE/subject geometry and single-bounce channel physics.

Implements the reflected-path channel gain, the power of channel variation
caused by a moving reflector, and the variation-to-interference ratio (VIR)
used to decide whether a candidate interferer position is feasible.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import kvtext

FOUR_PI = 4.0 * math.pi

# Positions closer than this are treated as coincident (singular geometry).
_COINCIDENT_TOL = 1e-12

# Cells per row block of vir_map (at least one whole row per block).
_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class RadioConfig:
    """Radio-link constants.

    ``g_tilde`` is the combined antenna/reflection gain folded together with
    the (lambda/4pi)^2 spreading factor, so the approximate variation power is
    simply ``g_tilde * v^2 * (d1*d2)^-alpha``.  The raw reflection gain used
    by the complex path-gain formula is recovered via :attr:`raw_gain`.

    The defaults are the normalized setting used by the feasibility-map and
    capacity-curve reproductions: g_tilde = eta = b = 1 (motion intensities
    are normalized to 1 by the caller), alpha = 4, 5 GHz carrier.
    """

    lambda_m: float = 0.06
    alpha: float = 4.0
    eta: float = 1.0
    b: float = 1.0
    g_tilde: float = 1.0

    def __post_init__(self) -> None:
        if not (self.lambda_m > 0):
            raise ValueError(f"lambda_m must be > 0, got {self.lambda_m}")
        if not (2.0 <= self.alpha <= 4.0):
            raise ValueError(f"alpha must be in [2, 4], got {self.alpha}")
        if self.eta < 0 or self.b < 0:
            raise ValueError("eta and b must be >= 0")
        if not (self.g_tilde > 0):
            raise ValueError(f"g_tilde must be > 0, got {self.g_tilde}")

    @property
    def raw_gain(self) -> float:
        """Antenna/reflection gain G with the spreading factor removed."""
        return self.g_tilde * (FOUR_PI / self.lambda_m) ** 2

    @classmethod
    def from_raw_gain(cls, raw_gain: float = 1.0, *, lambda_m: float = 0.06,
                      alpha: float = 4.0, eta: float = 1.0, b: float = 1.0) -> "RadioConfig":
        """Build a config from the raw gain G instead of g_tilde."""
        g_tilde = raw_gain * (lambda_m / FOUR_PI) ** 2
        return cls(lambda_m=lambda_m, alpha=alpha, eta=eta, b=b, g_tilde=g_tilde)


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")

    def distance(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class Mover:
    """A reflecting body at ``position`` moving with intensity (speed) ``intensity``."""

    position: Point2D
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if self.intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {self.intensity}")


def _check_distances(*distances: float) -> None:
    for d in distances:
        if not (d > 0):
            raise ValueError(f"distances must be > 0, got {d}")


def reflection_gain_array(cfg: RadioConfig, d_as, d_se) -> np.ndarray:
    """Vectorized reflected-path gain; no input validation (renderer hot path)."""
    d_as = np.asarray(d_as, dtype=float)
    d_se = np.asarray(d_se, dtype=float)
    amp = (cfg.lambda_m ** 2 * math.sqrt(cfg.raw_gain)
           / (FOUR_PI ** 2 * (d_as * d_se) ** (cfg.alpha / 2.0)))
    phase = -2.0 * math.pi * (d_as + d_se) / cfg.lambda_m
    return amp * np.exp(1j * phase)


def reflection_gain(cfg: RadioConfig, d_as: float, d_se: float) -> complex:
    """Channel gain of the AP -> subject -> UE single-bounce path.

    amplitude = lambda^2 sqrt(G) / ((4 pi)^2 (d_as d_se)^(alpha/2)),
    phase = -2 pi (d_as + d_se) / lambda.
    """
    _check_distances(d_as, d_se)
    return complex(reflection_gain_array(cfg, d_as, d_se))


def variation_power(cfg: RadioConfig, d_as: float, d_se: float, v: float) -> float:
    """Approximate power of channel variation of a reflector moving at speed v.

    Keeps only the phase-variation term: g_tilde * v^2 * (d_as*d_se)^-alpha.
    """
    _check_distances(d_as, d_se)
    if v < 0:
        raise ValueError(f"speed must be >= 0, got {v}")
    return cfg.g_tilde * v * v * (d_as * d_se) ** (-cfg.alpha)


def variation_power_exact(cfg: RadioConfig, d_as: float, d_se: float, v: float) -> float:
    """Exact variation power: amplitude- plus phase-variation terms.

    Always >= the approximate form; the two agree closely whenever the
    subject sits in the near field of the UE and far from the AP.
    """
    _check_distances(d_as, d_se)
    if v < 0:
        raise ValueError(f"speed must be >= 0, got {v}")
    lam, alpha = cfg.lambda_m, cfg.alpha
    prefactor = (cfg.raw_gain * lam ** 4 * v * v
                 / (FOUR_PI ** 4 * (d_as * d_se) ** alpha))
    bracket = (alpha ** 2 / 4.0 * ((d_as + d_se) / (d_as * d_se)) ** 2
               + 16.0 * math.pi ** 2 / lam ** 2)
    return prefactor * bracket


def dynamic_power(cfg: RadioConfig, d_ae: float) -> float:
    """Variation power of the direct-path dynamic channel: eta lambda^2 d^-alpha + b."""
    _check_distances(d_ae)
    return cfg.eta * cfg.lambda_m ** 2 * d_ae ** (-cfg.alpha) + cfg.b


def vir(cfg: RadioConfig, ap: Point2D, ue: Point2D, subject: Mover,
        interferers: Sequence[Mover] = ()) -> float:
    """Variation-to-interference ratio of ``subject`` observed at ``ue``.

    Ratio of the subject's variation power to the summed variation powers of
    every interferer plus the dynamic-channel power of the direct AP-UE path.
    """
    s = subject.position
    d_as = ap.distance(s)
    d_se = s.distance(ue)
    _check_distances(d_as, d_se)
    p_subject = variation_power(cfg, d_as, d_se, subject.intensity)

    denom = dynamic_power(cfg, ap.distance(ue))
    for itf in interferers:
        d_ai = ap.distance(itf.position)
        d_ie = itf.position.distance(ue)
        _check_distances(d_ai, d_ie)
        denom += variation_power(cfg, d_ai, d_ie, itf.intensity)
    if denom == 0.0:
        raise ZeroDivisionError("zero interference and zero dynamic power")
    return p_subject / denom


@dataclass
class FeasibilityMap:
    """Node-registered raster of VIR values over candidate interferer positions.

    Cell (row, col) sits at (x0 + col*dx, y0 + row*dy).  ``vir_subject`` is
    the subject's VIR with the interferer in that cell; ``vir_interferer`` is
    the cell's own VIR when treated as a subject (with its UE placed at the
    same near-field spacing, on the side facing away from the AP).  A cell is
    feasible when both ratios meet the threshold.  Cells coinciding with the
    AP, UE, or subject carry an ``inf`` sentinel and are infeasible.
    """

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int
    vir_subject: np.ndarray = field(repr=False)
    vir_interferer: np.ndarray = field(repr=False)
    feasible: np.ndarray = field(repr=False)

    def cell_center(self, row: int, col: int) -> Point2D:
        return Point2D(self.x0 + col * self.dx, self.y0 + row * self.dy)


def vir_map(cfg: RadioConfig, ap: Point2D, ue: Point2D, subject: Mover,
            extent: tuple[float, float, float, float], resolution: float,
            beta: float) -> FeasibilityMap:
    """Feasibility raster for a single candidate interferer moving as the subject does.

    ``extent`` is (x_min, y_min, x_max, y_max); ``resolution`` the cell size.
    Each cell's two :func:`vir` values are array expressions over blocks of
    whole rows, about ``_BLOCK_CELLS`` cells each, so temporaries do not grow
    with the grid.  They keep the scalar path's distances, order of operations
    and libm ``pow``; ``np.hypot`` may differ from ``math.hypot`` in the last bit.
    """
    if not all(math.isfinite(v) for v in extent):
        raise ValueError(f"extent must be finite, got {extent}")
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    if not (beta > 0):
        raise ValueError(f"beta must be > 0, got {beta}")
    x_min, y_min, x_max, y_max = extent
    if not (x_max > x_min and y_max > y_min):
        raise ValueError(f"degenerate extent {extent}")
    v_s, s = subject.intensity, subject.position
    d_as, delta_i = ap.distance(s), s.distance(ue)  # the candidate's UE mirrors delta_i
    p_subject = variation_power(cfg, d_as, delta_i, v_s)
    p_dynamic = dynamic_power(cfg, ap.distance(ue))
    g_s = cfg.g_tilde * v_s * v_s   # g v^2 of the subject and of every candidate

    nx = int(math.floor((x_max - x_min) / resolution)) + 1
    ny = int(math.floor((y_max - y_min) / resolution)) + 1
    vir_s, vir_i = np.empty((2, ny, nx))
    ok = np.empty((ny, nx), dtype=bool)
    pw, alpha = np.float_power, -cfg.alpha
    x = x_min + np.arange(nx) * resolution
    rows = max(1, _BLOCK_CELLS // nx)
    for r0 in range(0, ny, rows):
        y = (y_min + np.arange(r0, min(r0 + rows, ny)) * resolution)[:, None]
        vs, vi = vir_s[r0:r0 + rows], vir_i[r0:r0 + rows]
        d_ai, d_ie = np.hypot(ap.x - x, ap.y - y), np.hypot(x - ue.x, y - ue.y)
        singular = ((d_ai < _COINCIDENT_TOL) | (d_ie < _COINCIDENT_TOL)
                    | (np.hypot(x - s.x, y - s.y) < _COINCIDENT_TOL))
        with (np.errstate(divide="ignore", invalid="ignore") if singular.any()
              else contextlib.nullcontext()):
            den_s = p_dynamic + g_s * pw(d_ai * d_ie, alpha)
            # UE of the candidate sits past it on the line away from the AP.
            ue_x, ue_y = x + delta_i * ((x - ap.x) / d_ai), y + delta_i * ((y - ap.y) / d_ai)
            d_se, d_su = np.hypot(x - ue_x, y - ue_y), np.hypot(s.x - ue_x, s.y - ue_y)
            # vir() fails when a candidate's UE lands on the candidate
            _check_distances(np.min(d_se, initial=math.inf, where=~singular))
            # A candidate's UE landing on the subject (d_su = 0) takes the
            # d_su -> 0 limit of the subject term: inf, so vir_interferer is 0
            # there; a still subject (v_s = 0) adds no term at any distance.
            with np.errstate(divide="ignore"):   # only d_su = 0 divides by zero here
                subject_term = g_s * pw(d_as * d_su, alpha) if g_s > 0 else 0.0
            den_i = (cfg.eta * cfg.lambda_m ** 2 * pw(np.hypot(ap.x - ue_x, ap.y - ue_y), alpha)
                     + cfg.b + subject_term)
            if not (den_s.all() and den_i.all()):
                raise ZeroDivisionError("zero interference and zero dynamic power")
            np.divide(p_subject, den_s, out=vs)
            np.divide(g_s * pw(d_ai * d_se, alpha), den_i, out=vi)
        vs[singular] = vi[singular] = math.inf
        ok[r0:r0 + rows] = (vs >= beta) & (vi >= beta) & ~singular

    return FeasibilityMap(x0=x_min, y0=y_min, dx=resolution, dy=resolution,
                          nx=nx, ny=ny, vir_subject=vir_s, vir_interferer=vir_i,
                          feasible=ok)


def save_raster(path, values: np.ndarray, x0: float, y0: float,
                dx: float, dy: float) -> None:
    """Write a raster as text: header ``# x0 y0 dx dy nx ny`` then row-major values."""
    arr = np.asarray(values)
    ny, nx = arr.shape
    with open(path, "w") as fh:
        fh.write(f"# {x0:.10g} {y0:.10g} {dx:.10g} {dy:.10g} {nx} {ny}\n")
        fh.write(kvtext.format_table(arr, " ".join(["%.10g"] * nx) + "\n"))


def load_raster(path) -> tuple[np.ndarray, tuple[float, float, float, float]]:
    """Read a raster written by :func:`save_raster`; returns (values, (x0, y0, dx, dy)).

    Malformed headers, cell sizes that are not finite and > 0, shape mismatches
    and NaN cells raise ``ValueError`` naming the file; ``inf`` cells are kept.
    """
    with open(path) as fh:
        header = fh.readline()
        parts = header[1:].split()
        if not header.startswith("#") or len(parts) < 6:
            raise ValueError(f"{path}: raster header needs '# x0 y0 dx dy nx ny', got {header!r}")
        try:
            x0, y0, dx, dy = (float(p) for p in parts[:4])
            nx, ny = int(parts[4]), int(parts[5])
            values = np.loadtxt(fh, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not (nx >= 1 and ny >= 1 and all(math.isfinite(d) and d > 0 for d in (dx, dy))):
        raise ValueError(f"{path}: need nx, ny >= 1 and finite dx, dy > 0, got {parts[:6]}")
    if values.shape != (ny, nx):
        raise ValueError(f"{path}: expected {ny}x{nx} raster, got {values.shape}")
    if np.isnan(values).any():
        raise ValueError(f"{path}: NaN cell in raster")
    return values, (x0, y0, dx, dy)
