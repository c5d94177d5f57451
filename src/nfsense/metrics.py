"""Evaluation metrics: recovery error, respiration-rate estimation,
spectral entropy, and CSI-vs-BFI stability statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sra import Spectrogram, _hann_frames


@dataclass(frozen=True)
class RateEstimate:
    bpm: float
    confidence: float

    def __post_init__(self) -> None:
        if self.bpm < 0:
            raise ValueError(f"bpm must be >= 0, got {self.bpm}")


@dataclass(frozen=True)
class ComparisonReport:
    csi_window_std: np.ndarray
    bfi_window_std: np.ndarray
    csi_psd_freqs: np.ndarray
    csi_psd: np.ndarray
    bfi_psd_freqs: np.ndarray
    bfi_psd: np.ndarray


def _as_data(spec) -> np.ndarray:
    return spec.data if isinstance(spec, Spectrogram) else np.asarray(spec, dtype=float)


def recovery_mse(recovered, truth) -> float:
    """Mean squared entrywise difference over all entries."""
    a, b = _as_data(recovered), _as_data(truth)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.mean(d * d))


def estimate_rate(spec: Spectrogram, band_hz: tuple[float, float] = (0.1, 0.7)) -> RateEstimate:
    """Respiration rate from the time-averaged spectrum.

    Averages non-sentinel columns, takes the argmax bin inside the band, and
    refines it with parabolic interpolation of the three neighboring bins.
    """
    valid = ~spec.no_data_cols
    if not valid.any():
        raise ValueError("no data: every spectrogram column carries the sentinel")
    avg = spec.data[:, valid].mean(axis=1)
    freqs = spec.freqs()
    lo, hi = band_hz
    band = np.where((freqs >= lo) & (freqs <= hi))[0]
    if band.size == 0:
        raise ValueError(f"band {band_hz} Hz is outside spectrogram coverage "
                         f"(0..{freqs[-1]:.3g} Hz)")
    k = int(band[np.argmax(avg[band])])
    delta = 0.0
    if 0 < k < len(avg) - 1:
        y0, y1, y2 = avg[k - 1], avg[k], avg[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            delta = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    f_peak = (k + delta) * spec.df_hz
    band_mean = float(avg[band].mean())
    confidence = float(avg[k] / band_mean) if band_mean > 0 else 0.0
    return RateEstimate(bpm=max(60.0 * f_peak, 0.0), confidence=confidence)


def spectral_entropy(spec: Spectrogram) -> float:
    """Mean Shannon entropy (bits) of the column-normalized spectra.

    All-zero columns fall back to the uniform distribution (total
    uncertainty).  Result lies in [0, log2(N_F)].
    """
    valid = ~spec.no_data_cols
    if not valid.any():
        raise ValueError("no data: every spectrogram column carries the sentinel")
    cols = np.clip(spec.data[:, valid], 0.0, None)
    s = cols.sum(axis=0)
    p = cols / np.where(s > 0.0, s, 1.0)
    h = -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=0)
    return float(np.where(s > 0.0, h, math.log2(cols.shape[0])).mean())


def window_stds(track: np.ndarray, rate_hz: float, window_s: float = 0.1) -> np.ndarray:
    """Per-window standard deviations after linear detrending."""
    track = np.asarray(track, dtype=float)
    w = int(round(window_s * rate_hz))
    if w < 2 or track.size < w:
        raise ValueError(f"track of {track.size} samples is shorter than one "
                         f"{window_s} s window ({w} samples)")
    windows = track[:track.size // w * w].reshape(-1, w)
    # t is centred, so a window's least-squares slope is window @ t / (t @ t)
    t = np.arange(w) - (w - 1) / 2.0
    return np.std(windows - np.outer(windows @ t / (t @ t), t), axis=1)


def welch_psd(track: np.ndarray, rate_hz: float, segment_len: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Welch power spectral density: Hann windows, 50% overlap."""
    track = np.asarray(track, dtype=float)
    seg = min(segment_len, track.size)
    if seg < 2:
        raise ValueError("track too short for a power spectrum")
    frames, window = _hann_frames(track, seg, seg // 2)
    psd = np.abs(np.fft.rfft(frames, axis=1)) ** 2 / (rate_hz * float(np.sum(window ** 2)))
    psd[:, 1:-1] *= 2.0
    return np.fft.rfftfreq(seg, d=1.0 / rate_hz), psd.mean(axis=0)


def compare_csi_bfi(csi_track: np.ndarray, bfi_track: np.ndarray, rate_hz: float,
                    window_s: float = 0.1) -> ComparisonReport:
    """Stability/sensitivity comparison of a CSI-phase and a BFI-angle track."""
    csi_f, csi_p = welch_psd(csi_track, rate_hz)
    bfi_f, bfi_p = welch_psd(bfi_track, rate_hz)
    return ComparisonReport(
        csi_window_std=window_stds(csi_track, rate_hz, window_s),
        bfi_window_std=window_stds(bfi_track, rate_hz, window_s),
        csi_psd_freqs=csi_f, csi_psd=csi_p,
        bfi_psd_freqs=bfi_f, bfi_psd=bfi_p)


def band_energy(spec: Spectrogram, band_hz: tuple[float, float]) -> np.ndarray:
    """Per-column energy (sum of squared magnitudes) inside a frequency band."""
    freqs = spec.freqs()
    rows = (freqs >= band_hz[0]) & (freqs <= band_hz[1])
    vals = np.clip(spec.data[rows, :], 0.0, None)
    return (vals ** 2).sum(axis=0)
