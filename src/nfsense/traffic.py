"""Bursty frame-arrival processes for the three sensing strategies.

Frame arrivals follow a two-state (on/off) Markov-modulated Poisson process:
exponentially distributed bursts of traffic separated by exponentially
distributed gaps, with gaps stretched by the number of contending users.
BFI reports ride on a small fraction of uplink frames and are additionally
rate-capped, which makes ul_bfi the sparsest stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kvtext

KINDS = ("ul_csi", "dl_csi", "ul_bfi")

# BFI reports are roughly a tenth of data frames and top out near 10 per
# second regardless of how fast the burst is.
BFI_THINNING = 0.1
BFI_RATE_CAP_HZ = 10.0
BFI_CAP_WINDOW_S = 1.0

# Largest block of in-burst inter-arrival draws made at once.
_MAX_BLOCK = 4096


@dataclass(frozen=True)
class TrafficModel:
    kind: str = "dl_csi"
    mean_burst_s: float = 0.3
    mean_gap_s: float = 0.3
    rate_in_burst_hz: float = 1000.0
    contention_users: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (self.mean_burst_s > 0 and self.mean_gap_s > 0):
            raise ValueError("burst and gap durations must be > 0")
        if not (self.rate_in_burst_hz > 0):
            raise ValueError(f"rate_in_burst_hz must be > 0, got {self.rate_in_burst_hz}")
        if self.contention_users < 1:
            raise ValueError(f"contention_users must be >= 1, got {self.contention_users}")


@dataclass(frozen=True)
class SampleTimes:
    """Strictly increasing arrival timestamps within [0, duration]."""

    times: np.ndarray
    duration: float

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.size and (np.any(np.diff(t) <= 0) or t[0] < 0 or t[-1] > self.duration):
            raise ValueError("timestamps must be strictly increasing within [0, duration]")

    def __len__(self) -> int:
        return int(self.times.size)


def generate_arrivals(model: TrafficModel, duration: float) -> SampleTimes:
    """Draw one realization of the arrival process over [0, duration]."""
    if not (duration > 0):
        raise ValueError(f"duration must be > 0, got {duration}")
    rng = np.random.default_rng(np.random.SeedSequence((model.seed, KINDS.index(model.kind))))
    gap_mean = model.mean_gap_s * model.contention_users
    p_on = model.mean_burst_s / (model.mean_burst_s + gap_mean)

    shadow = np.random.Generator(type(rng.bit_generator)())
    arrivals: list[np.ndarray] = []
    t = 0.0
    on = bool(rng.random() < p_on)
    while t < duration:
        if on:
            dwell = rng.exponential(model.mean_burst_s)
            end = min(t + dwell, duration)
            arrivals.append(_burst(rng, shadow, t, end, 1.0 / model.rate_in_burst_hz))
            t += dwell
        else:
            t += rng.exponential(gap_mean)
        on = not on

    times = np.concatenate(arrivals) if arrivals else np.array([])
    if model.kind == "ul_bfi":
        times = _thin_and_cap(times, rng)
    return SampleTimes(times=times, duration=duration)


def _burst(rng: np.random.Generator, shadow: np.random.Generator, t: float,
           end: float, h: float) -> np.ndarray:
    """Arrivals u = t + h*E1, u + h*E2, ... below ``end`` of one burst.

    Byte-identical to one ``rng.exponential(h)`` call per arrival plus one
    for the overshoot: blocks of standard exponentials are drawn from
    ``shadow`` (set to rng's state), summed by a sequential cumsum, and rng
    then advances by exactly the draws consumed.
    """
    shadow.bit_generator.state = rng.bit_generator.state
    block = min(int((end - t) / h * 1.25) + 16, _MAX_BLOCK)
    parts, used = [], 0
    while True:
        u = h * shadow.standard_exponential(block)
        u[0] += t
        np.cumsum(u, out=u)
        k = int(np.searchsorted(u, end, side="left"))
        parts.append(u[:k])
        if k < block:
            break
        used += block
        t = float(u[-1])
    rng.standard_exponential(used + k + 1)  # the arrivals and the overshoot
    return np.concatenate(parts)


def _thin_and_cap(times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Keep ~1/10 of arrivals, then enforce the per-second BFI rate cap."""
    keep = rng.random(times.size) < BFI_THINNING
    thinned = times[keep]
    out: list[float] = []
    window: deque[float] = deque()
    limit = int(BFI_RATE_CAP_HZ * BFI_CAP_WINDOW_S)
    for t in thinned:
        while window and t - window[0] >= BFI_CAP_WINDOW_S:
            window.popleft()
        if len(window) < limit:
            window.append(t)
            out.append(t)
    return np.array(out)


def windowed_counts(times: Sequence[float] | np.ndarray, duration: float,
                    window_s: float) -> np.ndarray:
    """Arrival counts over consecutive windows covering [0, duration]."""
    t = np.asarray(times, dtype=float)
    n_win = max(int(np.floor(duration / window_s + 1e-9)), 1)
    idx = np.minimum((t / window_s).astype(int), n_win - 1)
    counts = np.bincount(idx, minlength=n_win)
    return counts[:n_win]


def burstiness_index(times: Sequence[float] | np.ndarray, duration: float,
                     window_s: float = 0.1) -> float:
    """Variance-to-mean ratio of windowed counts; 1 for a Poisson stream."""
    counts = windowed_counts(times, duration, window_s)
    mean = counts.mean()
    if mean == 0:
        return 0.0
    return float(counts.var() / mean)


def max_rate_in_window(times: np.ndarray, window_s: float = 1.0) -> int:
    """Largest arrival count in any sliding window of the given length."""
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        return 0
    # Max over windows ending at each arrival equals the sliding-window max.
    hi = np.arange(1, t.size + 1)
    lo = np.searchsorted(t, t - window_s, side="right")
    return int(np.max(hi - lo))


def save_sample_times(st: SampleTimes, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# duration_s {st.duration:.6f}\n")
        fh.write(kvtext.format_table(st.times, "%.6f\n"))
