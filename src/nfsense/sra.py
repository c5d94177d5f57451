"""Sparse-recovery data pipeline: from an irregular phase series to
sentinel-marked spectrograms and self-supervised training pairs.

Four steps: segmentation into sparse/non-sparse slices, resampling onto a
uniform grid with no-data tagging, short-time Fourier transformation, and
min-max normalization with a -1 sentinel written into no-data columns.
The mask generator reproduces the bursty missing-column patterns of real
traffic.  A dataset stores each dense label slice once, with one such mask
per training input; the input is the label with the masked columns set to
the sentinel.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kvtext
from .scene import CsiSeries

NO_DATA_SENTINEL = -1.0

# Majority rule: a spectrogram frame counts as no-data when more than half
# of the resampled instants under its window are missing.
_FRAME_NO_DATA_FRACTION = 0.5

_HAMPEL_HALF_WINDOW = 3          # window 7
_HAMPEL_N_SIGMAS = 3.0
_MAD_TO_SIGMA = 1.4826
_HAMPEL_BLOCK_ROWS = 1024
_FIR_TAPS = 129


@dataclass(frozen=True)
class SraConfig:
    """Pipeline geometry and thresholds.

    Defaults are the respiration setting: 64 Hz resampling, 1 Hz cut-off,
    4 s analysis window (fft_len 256) hopped every 0.25 s, keeping the
    lowest 32 bins.  :data:`SRA_BY_MOTION` gives each sensed motion its
    setting: gestures and activity take the wide band (20 Hz cut-off, 1 s
    window hopped every 1/16 s).
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

    @property
    def min_label_frames(self) -> int:
        return int(math.ceil(self.min_label_slice_s / self.frame_dt_s))


# The pipeline setting of each sensed motion (every scene motion kind but
# "still"); its keys are the motion types the coordinator registers.
_WIDE_BAND = SraConfig(f_cut=20.0, fft_len=64, hop=4)
SRA_BY_MOTION = {"respiration": SraConfig(), "gesture": _WIDE_BAND, "activity": _WIDE_BAND}


@dataclass(frozen=True)
class Slice:
    t0: float
    t1: float
    non_sparse: bool


@dataclass(frozen=True)
class ResampledSeries:
    values: np.ndarray
    no_data: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != len(self.no_data):
            raise ValueError("values and no_data must have equal length")

    def __len__(self) -> int:
        return int(len(self.values))


@dataclass(frozen=True)
class Spectrogram:
    """N_F x N_T matrix in [-1, 1]; no-data columns hold the -1 sentinel.

    It carries its own axes, in memory and in its file: frame j is centred
    ``t0_s + j * frame_dt_s`` seconds into the series and row k is
    ``k * df_hz`` Hz.
    """

    data: np.ndarray
    no_data_cols: np.ndarray
    t0_s: float
    frame_dt_s: float
    df_hz: float

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "no_data_cols", np.asarray(self.no_data_cols, dtype=bool))
        if d.ndim != 2:
            raise ValueError(f"spectrogram must be 2-D, got shape {d.shape}")
        if len(self.no_data_cols) != d.shape[1]:
            raise ValueError("column flags must match the number of frames")

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
            for a, b, v in runs(counts > cfg.n_nsp)]


def runs(flags: np.ndarray) -> list[tuple[int, int, bool]]:
    """(start, stop, value) of each maximal run of equal entries."""
    cuts = [0, *(np.flatnonzero(np.diff(flags)) + 1).tolist(), len(flags)]
    return [(a, b, bool(flags[a])) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``arange(lo[i], hi[i])`` for every i, back to back, and each range's length."""
    lengths = hi - lo
    shift = lo - np.cumsum(lengths) + lengths      # each range's start minus its offset
    return np.arange(lengths.sum()) + np.repeat(shift, lengths), lengths


def _hampel(values: np.ndarray, lengths: np.ndarray,
            at: np.ndarray | None = None) -> np.ndarray:
    """Outlier-replaced values at indices ``at`` (every index if None), in order.

    ``values`` holds runs of ``lengths`` samples back to back; an outlier is
    more than 3 scaled MADs off the median of its window of 7, and is replaced
    by that median.  No window crosses a run: end windows are truncated by
    padding them with +inf, and each median is np.median's own formula, the
    mean of sorted entries (m-1)//2 and m//2 of m real values.  Only the
    windows of ``at`` are built, in blocks of ``_HAMPEL_BLOCK_ROWS`` rows, so
    temporaries do not grow with the link.
    """
    k, lengths = _HAMPEL_HALF_WINDOW, np.asarray(lengths)
    at = np.arange(values.size) if at is None else np.asarray(at)
    ends = np.cumsum(lengths)
    run = np.searchsorted(ends, at, side="right")
    start, stop = ends[run] - lengths[run], ends[run]
    m = np.minimum(at + k, stop - 1) - np.maximum(at - k, start) + 1
    padded = np.append(values, np.inf)      # a window entry outside its run reads the +inf
    out = np.empty(at.size)
    for r0 in range(0, at.size, _HAMPEL_BLOCK_ROWS):
        rows = slice(r0, r0 + _HAMPEL_BLOCK_ROWS)
        idx = at[rows, None] + np.arange(-k, k + 1)
        inside = (idx >= start[rows, None]) & (idx < stop[rows, None])
        windows = padded[np.where(inside, idx, values.size)]
        row = np.arange(len(windows))
        lo, hi = (row, (m[rows] - 1) // 2), (row, m[rows] // 2)
        s = np.sort(windows, axis=1)
        med = (s[lo] + s[hi]) / 2
        s = np.sort(np.abs(windows - med[:, None]), axis=1)
        mad = (s[lo] + s[hi]) / 2
        v = values[at[rows]]
        out[rows] = np.where(np.abs(v - med) > _HAMPEL_N_SIGMAS * _MAD_TO_SIGMA * mad + 1e-300,
                             med, v)
    return out


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
    np.interp reads only the two samples around each grid instant, so only
    those are Hampel-filtered (their windows still see every sample of the
    slice); at 1 kHz bursts on a 64 Hz grid that is about one in eight.
    Sparse slices: raw samples snapped to their nearest grid instant, all
    other instants tagged no-data and bridged linearly so the low-pass
    filter sees a continuous track.  The slices must be in time order and
    must not overlap, as :func:`segment` makes them; all of them are
    resampled at once.
    """
    if duration is None:
        duration = max(s.t1 for s in segmentation)
    n = int(math.floor(duration * cfg.f_rs + 1e-9)) + 1
    grid = np.arange(n) / cfg.f_rs
    values = np.full(n, np.nan)
    no_data = np.ones(n, dtype=bool)

    t = series.timestamps
    phase = series.phase() if len(series) else np.array([])

    table = np.array([(s.t0, s.t1, s.non_sparse) for s in segmentation], dtype=float)
    table = table.reshape(-1, 3)
    if np.any(np.diff(table[:, :2].ravel()) < 0):
        raise ValueError("slices must be in time order and must not overlap")
    t0, t1, non_sparse = table.T
    g_lo = np.ceil(t0 * cfg.f_rs - 1e-9).astype(int)
    g_hi = np.minimum(np.floor(t1 * cfg.f_rs + 1e-9).astype(int), n - 1)
    # a grid instant on the boundary belongs to the next slice
    g_hi -= (t1 < duration) & (np.abs(g_hi / cfg.f_rs - t1) < 1e-12)
    kept = g_hi >= g_lo
    g_lo, g_hi = g_lo[kept], g_hi[kept]
    first, stop = np.searchsorted(t, [t0[kept], t1[kept]])
    dense = (non_sparse[kept] == 1) & (stop - first >= 2)

    # Every write in slice order: a dense slice's grid instants, a sparse
    # slice's samples.  An instant two slices share keeps the later write.
    src, count = _ranges(np.where(dense, g_lo, first), np.where(dense, g_hi + 1, stop))
    on_grid = np.repeat(dense, count)
    snap = ~on_grid
    at, put = src.copy(), np.empty(src.size)
    at[snap] = np.clip(np.round(t[src[snap]] * cfg.f_rs).astype(int),
                       np.repeat(g_lo, count)[snap], np.repeat(g_hi, count)[snap])
    put[snap] = phase[src[snap]]
    if dense.any():
        # np.interp returns fp[j] at knot j: clamping an instant to its own
        # slice's first and last sample gives that slice's end fill
        samples, runs = _ranges(first[dense], stop[dense])
        x = np.clip(grid[src[on_grid]], np.repeat(t[first[dense]], count[dense]),
                    np.repeat(t[stop[dense] - 1], count[dense]))
        # np.interp reads only the knots j and j + 1 around each instant, so
        # only those are Hampel-filtered and handed to it
        ts = t[samples]
        j = np.searchsorted(ts, x, side="right") - 1
        read = np.zeros(samples.size, dtype=bool)
        read[j] = True
        read[np.minimum(j + 1, samples.size - 1)] = True
        knots = np.flatnonzero(read)
        put[on_grid] = np.interp(x, ts[knots], _hampel(phase[samples], runs, knots))
    values[at] = put
    no_data[at] = False

    have = ~np.isnan(values)
    if not have.any():
        values[:] = 0.0
    else:
        values = np.interp(grid, grid[have], values[have])
    values = _zero_phase_filter(values, lowpass_taps(cfg.f_cut, cfg.f_rs))
    return ResampledSeries(values=values, no_data=no_data)


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


def normalize(raw: np.ndarray, flags: np.ndarray, t0_s: float, frame_dt_s: float,
              df_hz: float) -> Spectrogram:
    """Spectrogram assembly from raw magnitudes, frame flags and the two axes."""
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("magnitudes must be finite")
    return Spectrogram(data=minmax_normalize(raw, flags), no_data_cols=flags,
                       t0_s=t0_s, frame_dt_s=frame_dt_s, df_hz=df_hz)


def _hann_frames(values: np.ndarray, frame_len: int, hop: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean-removed, Hann-windowed frames every ``hop`` samples (rows), and the window."""
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(frame_len) / frame_len))
    frames = sliding_window_view(values, frame_len)[::hop]
    frames = frames - frames.mean(axis=1, keepdims=True)
    return np.multiply(frames, window, out=frames), window


def stft_magnitudes(rs: ResampledSeries, cfg: SraConfig) -> tuple[np.ndarray, np.ndarray]:
    """Hann-window STFT magnitudes (pre-normalization) plus frame flags.

    The per-frame mean is removed before windowing so that phase offsets and
    slow drift do not bury the motion bins under DC.
    """
    n = len(rs)
    if n < cfg.fft_len:
        raise ValueError(f"series of {n} samples is shorter than one window ({cfg.fft_len})")
    frames, _ = _hann_frames(rs.values, cfg.fft_len, cfg.hop)
    mags = np.ascontiguousarray(np.abs(np.fft.rfft(frames, axis=1)[:, :cfg.n_f]).T)
    no_data = sliding_window_view(rs.no_data, cfg.fft_len)[::cfg.hop]
    return mags, no_data.mean(axis=1) > _FRAME_NO_DATA_FRACTION


def spectrogram(rs: ResampledSeries, cfg: SraConfig) -> Spectrogram:
    """Transformation + normalization steps applied to a resampled series."""
    mags, flags = stft_magnitudes(rs, cfg)
    return normalize(mags, flags, cfg.fft_len / 2 / cfg.f_rs, cfg.frame_dt_s, cfg.df_hz)


def process_series(series: CsiSeries, cfg: SraConfig,
                   duration: float | None = None) -> Spectrogram:
    """Full pipeline: segmentation, resampling, transformation, normalization."""
    seg = segment(series, cfg, duration)
    rs = resample(series, seg, cfg, duration)
    return spectrogram(rs, cfg)


def make_mask(n_frames: int, target_missing_fraction: float,
              mean_run_frames: float, rng: np.random.Generator) -> np.ndarray:
    """Bursty boolean column mask (True = missing) from a two-state chain.

    The stationary missing probability equals the target fraction and missing
    runs last ``mean_run_frames`` frames on average.
    """
    if not (0.0 <= target_missing_fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1], got {target_missing_fraction}")
    if mean_run_frames <= 0:
        raise ValueError(f"mean_run_frames must be > 0, got {mean_run_frames}")
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
    return [spec.data[:, a:b].copy() for a, b, good in runs(~spec.no_data_cols)
            if good and b - a >= cfg.min_label_frames]


def chop_labels(labels: Sequence[np.ndarray], max_frames: int,
                stride: int) -> list[np.ndarray]:
    """Label slices, each longer than ``max_frames`` cut into windows that wide,
    one every ``stride`` frames."""
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
    """A ``(label, masks)`` per label slice: an N_F x N_T label and an (M, N_T)
    bool array, True where masked copy j hides a column.  ``train`` and
    ``test`` are the (input, label) pairs, label-major, then mask-minor; an
    input is its label with the hidden columns set to the -1 sentinel."""

    train_labels: tuple[tuple[np.ndarray, np.ndarray], ...]
    test_labels: tuple[tuple[np.ndarray, np.ndarray], ...]
    train = cached_property(lambda self: _pairs(self.train_labels))
    test = cached_property(lambda self: _pairs(self.test_labels))


def _pairs(labels) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    return tuple((np.where(mask, NO_DATA_SENTINEL, label), label)
                 for label, masks in labels for mask in masks)


def build_dataset(labels: Sequence[np.ndarray], masks_per_label: int,
                  mask_fraction: float, mean_run_frames: float,
                  split_fraction: float = 0.7, seed: int = 0) -> Dataset:
    """Masked-copy dataset from dense label slices.

    Slices are shuffled and split first (so augmented copies of one slice
    never straddle the train/test boundary), then each slice gets
    ``masks_per_label`` fresh bursty masks.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("no eligible label slices")
    if masks_per_label < 1:
        raise ValueError(f"masks_per_label must be >= 1, got {masks_per_label}")
    order = np.random.default_rng(np.random.SeedSequence((seed, 0))).permutation(len(labels))
    n_train = int(round(split_fraction * len(labels)))
    picked = [(labels[i], np.array([
        make_mask(labels[i].shape[1], mask_fraction, mean_run_frames,
                  np.random.default_rng(np.random.SeedSequence((seed, 1, i, j))))
        for j in range(masks_per_label)])) for i in order.tolist()]
    return Dataset(tuple(picked[:n_train]), tuple(picked[n_train:]))


def save_spectrogram(spec: Spectrogram, path) -> None:
    """Text format: header ``N_F N_T t0_s frame_dt_s df_hz``, rows, then flag row;
    ``df_hz`` is written as its repr, so it reads back as the same double."""
    kvtext.check_text_range(path, spec.data)
    with open(path, "w") as fh:
        fh.write(f"{spec.n_f} {spec.n_t} {spec.t0_s:.9f} {spec.frame_dt_s:.9f} "
                 f"{float(spec.df_hz)!r}\n")
        fh.write(kvtext.format_table(spec.data, " ".join(["%.9e"] * spec.n_t) + "\n"))
        fh.write(" ".join(np.where(spec.no_data_cols, "1", "0").tolist()) + "\n")


def load_spectrogram(path) -> Spectrogram:
    """Read a spectrogram written by :func:`save_spectrogram`, axes included."""
    with open(path) as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines, 1):
        # the header's float() reads '1_0' and non-ASCII digits, which the table
        # reader refuses; this scan names the line of any of them, or of a '#'
        if "_" in line or "#" in line or not line.isascii():
            raise ValueError(f"{path}: line {i}: '_', '#' or a non-ASCII character")
    rows = [line.split() for line in lines]
    try:
        n_f, n_t = int(rows[0][0]), int(rows[0][1])
        t0, frame_dt, df_hz = (float(v) for v in rows[0][2:])
        if min(n_f, n_t) < 0 or not (math.isfinite(t0) and math.isfinite(frame_dt)
                                     and 0 < df_hz < math.inf):
            raise ValueError
    except (IndexError, ValueError):
        raise ValueError(f"{path}: header must read 'N_F N_T t0_s frame_dt_s df_hz', with "
                         "df_hz > 0; a header that lacks df_hz is the older format: "
                         "rebuild the file with nfsense build-dataset") from None
    if len(rows) < n_f + 2:
        raise ValueError(f"{path}: expected {n_f} data rows and a flag row")
    for i, row in enumerate(rows[1:n_f + 2], start=2):
        if len(row) != n_t:
            raise ValueError(f"{path}: line {i} has {len(row)} values, expected {n_t}")
    if not set(rows[n_f + 1]) <= {"0", "1"}:
        raise ValueError(f"{path}: flag row must hold only 0 and 1")
    for i, row in enumerate(rows[n_f + 2:], n_f + 3):
        if row:
            raise ValueError(f"{path}: line {i}: text after the flag row")
    data = kvtext.read_table(path, lines[1:n_f + 1]).reshape(n_f, n_t)
    return Spectrogram(data=data, no_data_cols=np.array(rows[n_f + 1]) == "1",
                       t0_s=t0, frame_dt_s=frame_dt, df_hz=df_hz)


def save_dataset(ds: Dataset, out_dir) -> None:
    """Per label slice k of train/ and test/, ``KKKK.y`` holds the label, a row
    per line of ``%.9e`` values, and ``KKKK.JJJJ.x`` the mask of its masked
    copy j, one line of N_T 0/1 tokens (1 = hidden).  The ``.y`` and ``.x``
    files of a dataset already in train/ and test/ are removed first, so
    ``load_dataset`` reads this one alone."""
    splits = {"train": ds.train_labels, "test": ds.test_labels}
    for name, labels in splits.items():
        for k, (label, _) in enumerate(labels):
            kvtext.check_text_range(os.path.join(out_dir, name, f"{k:04d}.y"), label)
    for name in splits:
        sub = os.path.join(out_dir, name)
        for f in os.listdir(sub) if os.path.isdir(sub) else []:
            if f.endswith((".y", ".x")):
                os.remove(os.path.join(sub, f))
    for name, labels in splits.items():
        sub = os.path.join(out_dir, name)
        os.makedirs(sub, exist_ok=True)
        for k, (label, masks) in enumerate(labels):
            with open(os.path.join(sub, f"{k:04d}.y"), "w") as fh:
                fh.write(kvtext.format_table(label, " ".join(["%.9e"] * label.shape[1]) + "\n"))
            for j, mask in enumerate(masks):
                with open(os.path.join(sub, f"{k:04d}.{j:04d}.x"), "w") as fh:
                    fh.write(" ".join(np.where(mask, "1", "0").tolist()) + "\n")


def load_dataset(out_dir) -> Dataset:
    """Read a dataset written by :func:`save_dataset`; a ValueError names any
    file that does not read as one (a label with other rows than the first,
    a mask without its label or a label without a mask included).  A missing
    ``out_dir`` raises FileNotFoundError, and a file NotADirectoryError."""
    os.listdir(out_dir)
    splits, first = [], None
    for name in ("train", "test"):
        sub = os.path.join(out_dir, name)
        # by integer keys, not by name, which sorts 10000.y between 1000.y and 1001.y
        names = os.listdir(sub) if os.path.isdir(sub) else []
        files = sorted(names, key=lambda f: [(len(k), k) for k in f.split(".")])
        labels: dict[str, tuple[np.ndarray, list[np.ndarray]]] = {}
        for f in (f for f in files if f.endswith(".y")):
            path = os.path.join(sub, f)
            with open(path) as fh:
                lines = fh.readlines()
            label = kvtext.read_table(path, lines)
            if label.size == 0 or len(label) != len(lines):
                raise ValueError(f"{path}: holds no values or a blank line")
            first = first or (path, len(label))
            if len(label) != first[1]:
                raise ValueError(f"{path}: {len(label)} rows, expected {first[1]} as in "
                                 f"{first[0]}")
            labels[f[:-2]] = label, []
        for f in (f for f in files if f.endswith(".x")):
            path, key = os.path.join(sub, f), f.split(".")[0]
            label_path = os.path.join(sub, f"{key}.y")
            if key not in labels:
                raise ValueError(f"{path}: its label {label_path} is missing")
            label, masks = labels[key]
            with open(path, errors="replace") as fh:
                lines = fh.read().splitlines()
            tokens = lines[0].split() if len(lines) == 1 else []
            if len(tokens) != label.shape[1] or set(tokens) - {"0", "1"}:
                raise ValueError(f"{path}: must be one line of {label.shape[1]} 0/1 tokens, one "
                                 f"per column of {label_path}; a table here is the older pair "
                                 "format: rebuild the dataset with nfsense build-dataset")
            masks.append(np.array(tokens) == "1")
        for key, (_, masks) in labels.items():
            if not masks:
                raise ValueError(f"{os.path.join(sub, key)}.y: no {key}.JJJJ.x mask names it")
        splits.append(tuple((label, np.array(masks)) for label, masks in labels.values()))
    return Dataset(*splits)
