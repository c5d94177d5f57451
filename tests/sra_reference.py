"""Per-slice reference for the resampler and the reflection track.

``resample`` and ``_hampel`` below are the slice-at-a-time implementation
that ``nfsense.sra`` used before it resampled every slice of a link at once,
and ``_reflection_track`` is the renderer's term before it measured distances
from coordinates; all three are copied verbatim.  ``tests/test_sra.py`` and
``tests/test_scene.py`` check the package against them bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from nfsense.geometry import Point2D, reflection_gain_array
from nfsense.scene import CsiSeries, Scene, SceneUser, _subject_axis, displacement
from nfsense.sra import ResampledSeries, Slice, SraConfig, _zero_phase_filter, lowpass_taps

_HAMPEL_HALF_WINDOW = 3          # window 7
_HAMPEL_N_SIGMAS = 3.0
_MAD_TO_SIGMA = 1.4826


def _hampel(values: np.ndarray) -> np.ndarray:
    """Replace outliers by the rolling median (window 7, 3 scaled MADs).

    End windows are truncated: +inf pads them, and each median is np.median's
    own formula, the mean of sorted entries (m-1)//2 and m//2 of m real values.
    """
    n, k = values.size, _HAMPEL_HALF_WINDOW
    pos = np.arange(n)
    m = np.minimum(pos + k, n - 1) - np.maximum(pos - k, 0) + 1
    lo, hi = (pos, (m - 1) // 2), (pos, m // 2)
    pad = np.full(k, np.inf)
    windows = np.concatenate([pad, values, pad])[pos[:, None] + np.arange(2 * k + 1)]
    s = np.sort(windows, axis=1)
    med = (s[lo] + s[hi]) / 2
    s = np.sort(np.abs(windows - med[:, None]), axis=1)
    mad = (s[lo] + s[hi]) / 2
    return np.where(np.abs(values - med) > _HAMPEL_N_SIGMAS * _MAD_TO_SIGMA * mad + 1e-300,
                    med, values)


def resample(series: CsiSeries, segmentation: Sequence[Slice], cfg: SraConfig,
             duration: float | None = None) -> ResampledSeries:
    """Resample the unwrapped phase track onto the uniform f_rs grid.

    Non-sparse slices: Hampel outlier rejection then linear interpolation.
    Sparse slices: raw samples snapped to their nearest grid instant, all
    other instants tagged no-data and bridged linearly so the low-pass
    filter sees a continuous track.
    """
    if duration is None:
        duration = max(s.t1 for s in segmentation)
    n = int(math.floor(duration * cfg.f_rs + 1e-9)) + 1
    grid = np.arange(n) / cfg.f_rs
    values = np.full(n, np.nan)
    no_data = np.ones(n, dtype=bool)

    t = series.timestamps
    phase = series.phase() if len(series) else np.array([])

    for sl in segmentation:
        g_lo = int(math.ceil(sl.t0 * cfg.f_rs - 1e-9))
        g_hi = min(int(math.floor(sl.t1 * cfg.f_rs + 1e-9)), n - 1)
        if sl.t1 < duration and abs(g_hi / cfg.f_rs - sl.t1) < 1e-12:
            g_hi -= 1  # grid instant on the boundary belongs to the next slice
        if g_hi < g_lo:
            continue
        inside = slice(*np.searchsorted(t, (sl.t0, sl.t1)))
        if sl.non_sparse and inside.stop - inside.start >= 2:
            clean = _hampel(phase[inside])
            values[g_lo:g_hi + 1] = np.interp(grid[g_lo:g_hi + 1], t[inside], clean)
            no_data[g_lo:g_hi + 1] = False
        else:
            k = np.clip(np.round(t[inside] * cfg.f_rs).astype(int), g_lo, g_hi)
            values[k] = phase[inside]
            no_data[k] = False

    have = ~np.isnan(values)
    if not have.any():
        values[:] = 0.0
    else:
        values = np.interp(grid, grid[have], values[have])
    values = _zero_phase_filter(values, lowpass_taps(cfg.f_cut, cfg.f_rs))
    return ResampledSeries(values=values, no_data=no_data)


def _reflection_track(scene: Scene, user: SceneUser, rx: Point2D,
                      times: np.ndarray) -> np.ndarray:
    """Complex gain contribution of one subject toward receiver ``rx``."""
    disp = displacement(user.motion, times)
    point = user.subject.as_array()[None, :] + disp[:, None] * _subject_axis(user)[None, :]
    d_as = np.linalg.norm(point - scene.ap.as_array(), axis=1)
    d_se = np.linalg.norm(point - rx.as_array(), axis=1)
    return reflection_gain_array(scene.cfg, d_as, d_se)
