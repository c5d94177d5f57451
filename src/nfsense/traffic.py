"""Bursty frame-arrival processes for the three sensing strategies.

Frame arrivals follow a two-state (on/off) Markov-modulated Poisson process:
exponentially distributed bursts of traffic separated by exponentially
distributed gaps, with gaps stretched by the number of contending users.
After the uniform that picks the first phase, every draw is one standard
exponential, read in order from one stream: each gap (times the contended
mean gap), and each burst's dwell (times the mean burst) followed by its
in-burst spacings (times 1 / rate) up to the first that passes its end.
BFI reports ride on a small fraction of uplink frames and are additionally
rate-capped, which makes ul_bfi the sparsest stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("ul_csi", "dl_csi", "ul_bfi")

# BFI reports are roughly a tenth of data frames and top out near 10 per
# second regardless of how fast the burst is.
BFI_THINNING = 0.1
BFI_RATE_CAP_HZ = 10.0
BFI_CAP_WINDOW_S = 1.0

# Standard exponentials drawn ahead at a time, beyond a burst's own slice.
_READ_AHEAD = 4096


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
    if not (0 < duration < float("inf")):     # an infinite window never ends
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    rng = np.random.default_rng(np.random.SeedSequence((model.seed, KINDS.index(model.kind))))
    gap_mean = model.mean_gap_s * model.contention_users
    p_on = model.mean_burst_s / (model.mean_burst_s + gap_mean)
    h = 1.0 / model.rate_in_burst_hz

    on = bool(rng.random() < p_on)
    ahead = np.random.Generator(type(rng.bit_generator)())
    ahead.bit_generator.state = rng.bit_generator.state
    draws = ahead.standard_exponential(_READ_AHEAD)
    arrivals: list[np.ndarray] = []
    t, k, read = 0.0, 0, 0          # draws[k] is draw number read + k
    while t < duration:
        step = (model.mean_burst_s if on else gap_mean) * draws[k]
        k += 1
        if on:
            end = min(t + step, duration)
            n = int((end - t) / h * 1.25) + 16
            while True:
                # two spare draws: the next gap and dwell read draws[k] unchecked
                if k + n + 2 > draws.size:
                    more = ahead.standard_exponential(n + _READ_AHEAD)
                    draws, read, k = np.concatenate((draws[k:], more)), read + k, 0
                u = h * draws[k:k + n]
                u[0] += t
                np.cumsum(u, out=u)
                i = int(np.searchsorted(u, end, side="left"))
                if i < n:           # draws[k + i] is the overshoot
                    break
                n *= 2
            arrivals.append(u[:i])
            k += i + 1
        t += step
        on = not on

    times = np.concatenate(arrivals) if arrivals else np.array([])
    if model.kind == "ul_bfi":
        rng.standard_exponential(read + k)      # the thinning draws follow
        times = _thin_and_cap(times, rng)
    return SampleTimes(times=times, duration=duration)


def _thin_and_cap(times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Keep ~1/10 of arrivals, then enforce the per-second BFI rate cap: an
    arrival is kept unless the ``limit``-th last kept one is under
    ``BFI_CAP_WINDOW_S`` older."""
    keep = rng.random(times.size) < BFI_THINNING
    out: list[float] = []
    limit = int(BFI_RATE_CAP_HZ * BFI_CAP_WINDOW_S)
    for t in times[keep]:
        if len(out) < limit or t - out[-limit] >= BFI_CAP_WINDOW_S:
            out.append(t)
    return np.array(out)


def max_rate_in_window(times: np.ndarray, window_s: float = 1.0) -> int:
    """Largest arrival count in any sliding window of the given length."""
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        return 0
    # Max over windows ending at each arrival equals the sliding-window max.
    hi = np.arange(1, t.size + 1)
    lo = np.searchsorted(t, t - window_s, side="right")
    return int(np.max(hi - lo))
