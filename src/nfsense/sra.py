"""Sparse-recovery data pipeline: from an irregular phase series to
sentinel-marked spectrograms and self-supervised training pairs.

Four steps: segmentation into sparse/non-sparse slices, resampling onto a
uniform grid with no-data tagging, short-time Fourier transformation, and
min-max normalization with a -1 sentinel written into no-data columns.
The mask generator reproduces the bursty missing-column patterns of real
traffic so that masked copies of dense slices can serve as training inputs.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .scene import CsiSeries

NO_DATA_SENTINEL = -1.0

# Majority rule: a spectrogram frame counts as no-data when more than half
# of the resampled instants under its window are missing.
_FRAME_NO_DATA_FRACTION = 0.5

_HAMPEL_HALF_WINDOW = 3          # window 7
_HAMPEL_N_SIGMAS = 3.0
_MAD_TO_SIGMA = 1.4826
_FIR_TAPS = 129


@dataclass(frozen=True)
class SraConfig:
    """Pipeline geometry and thresholds.

    Defaults are the respiration setting: 64 Hz resampling, 1 Hz cut-off,
    4 s analysis window (fft_len 256) hopped every 0.25 s, keeping the
    lowest 32 bins.  Use :meth:`gesture` for the wide-band setting of
    gestures and activity (20 Hz cut-off, shorter window).
    """

    dt: float = 0.1
    n_nsp: int = 2
    f_rs: float = 64.0
    f_cut: float = 1.0
    n_f: int = 32
    fft_len: int = 256
    hop: int = 16
    min_label_slice_s: float = 4.0

    def __post_init__(self) -> None:
        if not (self.dt > 0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.n_nsp < 1:
            raise ValueError(f"n_nsp must be >= 1, got {self.n_nsp}")
        if not (self.f_rs > 2.0 * self.f_cut):
            raise ValueError(f"need f_rs > 2*f_cut, got f_rs={self.f_rs}, f_cut={self.f_cut}")
        if self.n_f > self.fft_len // 2 + 1:
            raise ValueError(f"n_f={self.n_f} exceeds one-sided bins of fft_len={self.fft_len}")
        if self.hop < 1:
            raise ValueError(f"hop must be >= 1, got {self.hop}")

    @property
    def df_hz(self) -> float:
        return self.f_rs / self.fft_len

    @property
    def frame_dt_s(self) -> float:
        return self.hop / self.f_rs

    @classmethod
    def gesture(cls) -> "SraConfig":
        return cls(f_cut=20.0, fft_len=64, hop=4)


@dataclass(frozen=True)
class Slice:
    t0: float
    t1: float
    non_sparse: bool


@dataclass(frozen=True)
class ResampledSeries:
    values: np.ndarray
    no_data: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        if len(self.values) != len(self.no_data):
            raise ValueError("values and no_data must have equal length")

    def __len__(self) -> int:
        return int(len(self.values))


@dataclass(frozen=True)
class Spectrogram:
    """N_F x N_T matrix in [-1, 1]; no-data columns hold the -1 sentinel."""

    data: np.ndarray
    no_data_cols: np.ndarray
    frame_times: np.ndarray
    df_hz: float = 0.25

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "no_data_cols", np.asarray(self.no_data_cols, dtype=bool))
        object.__setattr__(self, "frame_times", np.asarray(self.frame_times, dtype=float))
        if d.ndim != 2:
            raise ValueError(f"spectrogram must be 2-D, got shape {d.shape}")
        if len(self.no_data_cols) != d.shape[1] or len(self.frame_times) != d.shape[1]:
            raise ValueError("column flags/times must match the number of frames")

    @property
    def n_f(self) -> int:
        return self.data.shape[0]

    @property
    def n_t(self) -> int:
        return self.data.shape[1]

    def freqs(self) -> np.ndarray:
        return np.arange(self.n_f) * self.df_hz


def segment(series: CsiSeries, cfg: SraConfig, duration: float | None = None) -> list[Slice]:
    """Label the time axis as maximal sparse / non-sparse slices.

    Windows of length ``dt`` stepped by ``dt``; windows holding more than
    ``n_nsp`` samples are non-sparse.  Adjacent same-label windows are merged
    and the slices cover [0, duration] completely.
    """
    t = series.timestamps
    if duration is None:
        duration = float(math.ceil(t[-1] / cfg.dt) * cfg.dt) if t.size else 0.0
    if duration <= 0 or t.size == 0:
        return [Slice(0.0, max(duration, 0.0), non_sparse=False)]
    n_win = int(math.ceil(duration / cfg.dt - 1e-9))
    idx = np.minimum((t / cfg.dt).astype(int), n_win - 1)
    counts = np.bincount(idx[(t >= 0) & (t <= duration)], minlength=n_win)
    return [Slice(a * cfg.dt, duration if b == n_win else b * cfg.dt, v)
            for a, b, v in _runs(counts > cfg.n_nsp)]


def _runs(flags: np.ndarray) -> list[tuple[int, int, bool]]:
    """(start, stop, value) of each maximal run of equal entries."""
    cuts = [0, *(np.flatnonzero(np.diff(flags)) + 1).tolist(), len(flags)]
    return [(a, b, bool(flags[a])) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]


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


def lowpass_taps(f_cut: float, f_rs: float) -> np.ndarray:
    """Hamming-windowed sinc low-pass kernel, unit DC gain.

    The tap count scales with f_rs/f_cut (minimum 129) so the transition
    band stays narrow relative to the cut-off; at 129 taps a 1 Hz cut-off
    on a 64 Hz grid would otherwise droop measurably inside the passband.
    """
    n_taps = max(_FIR_TAPS, int(4.0 * f_rs / f_cut) | 1)
    m = np.arange(n_taps) - (n_taps - 1) / 2.0
    fc = f_cut / f_rs
    h = 2.0 * fc * np.sinc(2.0 * fc * m)
    h *= np.hamming(n_taps)
    return h / h.sum()


def _zero_phase_filter(values: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Forward-backward FIR application with reflected edges."""
    n = values.size
    if n == 0:
        return values
    pad = min(len(taps), n - 1)
    ext = np.pad(values, pad, mode="reflect") if pad else values.copy()
    fwd = np.convolve(ext, taps, mode="same")
    bwd = np.convolve(fwd[::-1], taps, mode="same")[::-1]
    return bwd[pad:pad + n]


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
    return ResampledSeries(values=values, no_data=no_data, rate=cfg.f_rs)


def minmax_normalize(raw: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Joint min-max over non-flagged entries to [0, 1]; flagged columns -> -1.

    A constant (max == min) input maps to all zeros.
    """
    raw = np.asarray(raw, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    out = np.empty_like(raw)
    valid = ~flags
    if valid.any():
        block = raw[:, valid]
        lo, hi = float(block.min()), float(block.max())
        span = hi - lo
        out[:, valid] = 0.0 if span == 0.0 else (block - lo) / span
    out[:, flags] = NO_DATA_SENTINEL
    return out


def normalize(raw: np.ndarray, flags: np.ndarray, frame_times=None,
              df_hz: float = 0.25) -> Spectrogram:
    """Spectrogram assembly from raw magnitudes and frame flags."""
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("magnitudes must be finite")
    if frame_times is None:
        frame_times = np.arange(raw.shape[1], dtype=float)
    return Spectrogram(data=minmax_normalize(raw, flags), no_data_cols=flags,
                       frame_times=frame_times, df_hz=df_hz)


def _hann_frames(values: np.ndarray, frame_len: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean-removed, Hann-windowed frames every ``hop`` samples (rows), and the window."""
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(frame_len) / frame_len))
    frames = sliding_window_view(values, frame_len)[::hop]
    frames = frames - frames.mean(axis=1, keepdims=True)
    return np.multiply(frames, window, out=frames), window


def stft_magnitudes(rs: ResampledSeries, cfg: SraConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hann-window STFT magnitudes (pre-normalization) plus frame flags/times.

    The per-frame mean is removed before windowing so that phase offsets and
    slow drift do not bury the motion bins under DC.
    """
    n = len(rs)
    if n < cfg.fft_len:
        raise ValueError(f"series of {n} samples is shorter than one window ({cfg.fft_len})")
    frames, _ = _hann_frames(rs.values, cfg.fft_len, cfg.hop)
    mags = np.ascontiguousarray(np.abs(np.fft.rfft(frames, axis=1)[:, :cfg.n_f]).T)
    no_data = sliding_window_view(rs.no_data, cfg.fft_len)[::cfg.hop]
    flags = no_data.mean(axis=1) > _FRAME_NO_DATA_FRACTION
    times = (np.arange(0, n - cfg.fft_len + 1, cfg.hop) + cfg.fft_len / 2.0) / cfg.f_rs
    return mags, flags, times


def spectrogram(rs: ResampledSeries, cfg: SraConfig) -> Spectrogram:
    """Transformation + normalization steps applied to a resampled series."""
    mags, flags, times = stft_magnitudes(rs, cfg)
    return normalize(mags, flags, frame_times=times, df_hz=cfg.df_hz)


def process_series(series: CsiSeries, cfg: SraConfig,
                   duration: float | None = None) -> Spectrogram:
    """Full pipeline: segmentation, resampling, transformation, normalization."""
    seg = segment(series, cfg, duration)
    rs = resample(series, seg, cfg, duration)
    return spectrogram(rs, cfg)


def make_mask(n_frames: int, target_missing_fraction: float,
              mean_run_frames: float, rng: np.random.Generator | int = 0) -> np.ndarray:
    """Bursty boolean column mask (True = missing) from a two-state chain.

    The stationary missing probability equals the target fraction and missing
    runs last ``mean_run_frames`` frames on average.
    """
    if not (0.0 <= target_missing_fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1], got {target_missing_fraction}")
    if mean_run_frames <= 0:
        raise ValueError(f"mean_run_frames must be > 0, got {mean_run_frames}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    mask = np.zeros(n_frames, dtype=bool)
    f = target_missing_fraction
    if f == 0.0:
        return mask
    if f == 1.0:
        return ~mask
    p_leave_missing = min(1.0 / mean_run_frames, 1.0)
    p_enter_missing = min(f * p_leave_missing / (1.0 - f), 1.0)
    state = rng.random() < f
    for k in range(n_frames):
        mask[k] = state
        if state:
            state = not (rng.random() < p_leave_missing)
        else:
            state = rng.random() < p_enter_missing
    return mask


def extract_label_slices(spec: Spectrogram, cfg: SraConfig) -> list[np.ndarray]:
    """Dense (no-sentinel) column runs long enough to serve as labels."""
    min_frames = int(math.ceil(cfg.min_label_slice_s / cfg.frame_dt_s))
    return [spec.data[:, a:b].copy() for a, b, good in _runs(~spec.no_data_cols)
            if good and b - a >= min_frames]


def chop_labels(labels: Sequence[np.ndarray], max_frames: int,
                stride: int | None = None) -> list[np.ndarray]:
    """Cut long label slices into fixed-width windows (training convenience)."""
    if stride is None:
        stride = max_frames
    out: list[np.ndarray] = []
    for lab in labels:
        n = lab.shape[1]
        if n <= max_frames:
            out.append(lab)
            continue
        for s in range(0, n - max_frames + 1, stride):
            out.append(lab[:, s:s + max_frames].copy())
    return out


@dataclass(frozen=True)
class Dataset:
    train: tuple[tuple[np.ndarray, np.ndarray], ...]
    test: tuple[tuple[np.ndarray, np.ndarray], ...]


def build_dataset(labels: Sequence[np.ndarray], masks_per_label: int,
                  mask_fraction: float, mean_run_frames: float,
                  split_fraction: float = 0.7, seed: int = 0) -> Dataset:
    """Masked-copy dataset from dense label slices.

    Slices are shuffled and split first (so augmented copies of one slice
    never straddle the train/test boundary), then each slice is reused
    ``masks_per_label`` times with fresh bursty masks; masked columns are
    overwritten with the -1 sentinel.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("no eligible label slices")
    if masks_per_label < 1:
        raise ValueError(f"masks_per_label must be >= 1, got {masks_per_label}")
    order = np.random.default_rng(np.random.SeedSequence((seed, 0))).permutation(len(labels))
    n_train = int(round(split_fraction * len(labels)))
    picks = {"train": order[:n_train], "test": order[n_train:]}

    sets: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {"train": [], "test": []}
    for name, indices in picks.items():
        for idx in indices:
            label = labels[int(idx)]
            for j in range(masks_per_label):
                rng = np.random.default_rng(np.random.SeedSequence((seed, 1, int(idx), j)))
                mask = make_mask(label.shape[1], mask_fraction, mean_run_frames, rng)
                masked = label.copy()
                masked[:, mask] = NO_DATA_SENTINEL
                sets[name].append((masked, label.copy()))
    return Dataset(train=tuple(sets["train"]), test=tuple(sets["test"]))


def save_spectrogram(spec: Spectrogram, path) -> None:
    """Text format: header ``N_F N_T t0_s frame_dt_s``, rows, then flag row."""
    frame_dt = float(spec.frame_times[1] - spec.frame_times[0]) if spec.n_t > 1 else 0.0
    t0 = float(spec.frame_times[0]) if spec.n_t else 0.0
    with open(path, "w") as fh:
        fh.write(f"{spec.n_f} {spec.n_t} {t0:.9f} {frame_dt:.9f}\n")
        for row in spec.data:
            fh.write(" ".join(f"{v:.9e}" for v in row) + "\n")
        fh.write(" ".join("1" if f else "0" for f in spec.no_data_cols) + "\n")


def load_spectrogram(path, df_hz: float = 0.25) -> Spectrogram:
    """Read a spectrogram written by :func:`save_spectrogram`.

    The file format does not carry the frequency axis; pass the config's
    ``df_hz`` when a real frequency mapping is needed.
    """
    with open(path) as fh:
        rows = [line.split() for line in fh]
    try:
        n_f, n_t, t0, frame_dt = rows[0]
        n_f, n_t, t0, frame_dt = int(n_f), int(n_t), float(t0), float(frame_dt)
        if min(n_f, n_t) < 0 or not (math.isfinite(t0) and math.isfinite(frame_dt)):
            raise ValueError
    except (IndexError, ValueError):
        raise ValueError(f"{path}: header must read 'N_F N_T t0_s frame_dt_s'") from None
    if len(rows) < n_f + 2:
        raise ValueError(f"{path}: expected {n_f} data rows and a flag row")
    for i, row in enumerate(rows[1:n_f + 2], start=2):
        if len(row) != n_t:
            raise ValueError(f"{path}: line {i} has {len(row)} values, expected {n_t}")
    if not set(rows[n_f + 1]) <= {"0", "1"}:
        raise ValueError(f"{path}: flag row must hold only 0 and 1")
    try:
        data = np.array(rows[1:n_f + 1], dtype=float).reshape(n_f, n_t)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite spectrogram value")
    flags = np.array(rows[n_f + 1]) == "1"
    times = t0 + np.arange(n_t) * frame_dt
    return Spectrogram(data=data, no_data_cols=flags, frame_times=times, df_hz=df_hz)


def save_dataset(ds: Dataset, out_dir) -> None:
    """Numbered pair files NNNN.x / NNNN.y under train/ and test/ subdirs."""
    for name, pairs in (("train", ds.train), ("test", ds.test)):
        sub = os.path.join(out_dir, name)
        os.makedirs(sub, exist_ok=True)
        for i, (x, y) in enumerate(pairs):
            np.savetxt(os.path.join(sub, f"{i:04d}.x"), x, fmt="%.9e")
            np.savetxt(os.path.join(sub, f"{i:04d}.y"), y, fmt="%.9e")


def _load_pair_file(path) -> np.ndarray:
    """One array of a dataset pair; a ValueError names the file if it is unusable."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # an empty file only warns
            data = np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if data.size == 0:
        raise ValueError(f"{path}: holds no values")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value")
    return data


def load_dataset(out_dir) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    Every ``.x`` input needs a ``.y`` target of the same shape; a missing
    partner, a shape mismatch, a ragged or non-numeric file or a non-finite
    value raises a ValueError that names the file.  A missing ``out_dir``
    raises FileNotFoundError, and a file NotADirectoryError.
    """
    os.listdir(out_dir)
    sets = {}
    for name in ("train", "test"):
        sub = os.path.join(out_dir, name)
        pairs = []
        if os.path.isdir(sub):
            xs = sorted(f for f in os.listdir(sub) if f.endswith(".x"))
            for xf in xs:
                xp, yp = os.path.join(sub, xf), os.path.join(sub, xf[:-2] + ".y")
                if not os.path.isfile(yp):
                    raise ValueError(f"{yp}: missing, but its input {xf} exists")
                x, y = _load_pair_file(xp), _load_pair_file(yp)
                if x.shape != y.shape:
                    raise ValueError(f"{yp}: shape {y.shape} differs from its input's {x.shape}")
                pairs.append((x, y))
        sets[name] = tuple(pairs)
    return Dataset(train=sets["train"], test=sets["test"])
