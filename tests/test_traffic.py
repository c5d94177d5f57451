"""Arrival-process tests: burst/gap statistics, the BFI rate cap."""

import dataclasses
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfsense import traffic
from nfsense.traffic import (BFI_CAP_WINDOW_S, BFI_RATE_CAP_HZ, BFI_THINNING, KINDS,
                             TrafficModel, _thin_and_cap, generate_arrivals,
                             max_rate_in_window)


def windowed_counts(times, duration: float, window_s: float) -> np.ndarray:
    """Arrival counts over consecutive windows covering [0, duration]."""
    t = np.asarray(times, dtype=float)
    n_win = max(int(np.floor(duration / window_s + 1e-9)), 1)
    idx = np.minimum((t / window_s).astype(int), n_win - 1)
    counts = np.bincount(idx, minlength=n_win)
    return counts[:n_win]


def burstiness_index(times, duration: float, window_s: float = 0.1) -> float:
    """Variance-to-mean ratio of windowed counts; 1 for a Poisson stream."""
    counts = windowed_counts(times, duration, window_s)
    mean = counts.mean()
    if mean == 0:
        return 0.0
    return float(counts.var() / mean)


def cap_loop(times, rng):
    """BFI thinning, then the rate cap as a sliding window of the kept
    arrivals under one window old: the oracle of ``_thin_and_cap``."""
    keep = rng.random(times.size) < BFI_THINNING
    out = []
    window = deque()
    limit = int(BFI_RATE_CAP_HZ * BFI_CAP_WINDOW_S)
    for t in times[keep]:
        while window and t - window[0] >= BFI_CAP_WINDOW_S:
            window.popleft()
        if len(window) < limit:
            window.append(t)
            out.append(t)
    return np.array(out)


class KeepAll:
    """A thinning source that keeps every arrival."""

    def random(self, n):
        return np.zeros(n)


def arrivals_loop(model, duration):
    """One scalar draw per arrival: the oracle of the block-drawn generator."""
    rng = np.random.default_rng(np.random.SeedSequence((model.seed, KINDS.index(model.kind))))
    gap_mean = model.mean_gap_s * model.contention_users
    p_on = model.mean_burst_s / (model.mean_burst_s + gap_mean)
    arrivals = []
    t = 0.0
    on = bool(rng.random() < p_on)
    while t < duration:
        if on:
            dwell = rng.exponential(model.mean_burst_s)
            end = min(t + dwell, duration)
            u = t + rng.exponential(1.0 / model.rate_in_burst_hz)
            while u < end:
                arrivals.append(u)
                u += rng.exponential(1.0 / model.rate_in_burst_hz)
            t += dwell
        else:
            t += rng.exponential(gap_mean)
        on = not on
    times = np.array(arrivals)
    if model.kind == "ul_bfi":
        times = cap_loop(times, rng)
    return times


class TestGenerateArrivals:
    def test_determinism_per_seed(self):
        model = TrafficModel(kind="dl_csi", seed=42)
        a = generate_arrivals(model, 20.0)
        b = generate_arrivals(model, 20.0)
        assert np.array_equal(a.times, b.times)
        c = generate_arrivals(dataclasses.replace(model, seed=43), 20.0)
        assert not np.array_equal(a.times, c.times)

    def test_rate_approaches_burst_rate_without_gaps(self):
        # vanishing gaps: the stream is a plain Poisson process at the burst rate
        rates = []
        for seed in range(20):
            model = TrafficModel(kind="dl_csi", mean_burst_s=0.3, mean_gap_s=1e-9,
                                 rate_in_burst_hz=500.0, seed=seed)
            st_ = generate_arrivals(model, 100.0)
            rates.append(len(st_) / 100.0)
        assert np.mean(rates) == pytest.approx(500.0, rel=0.05)

    def test_tiny_duration_often_empty(self):
        empties = 0
        for seed in range(30):
            model = TrafficModel(kind="dl_csi", mean_gap_s=1.0, seed=seed)
            if len(generate_arrivals(model, 1e-4)) == 0:
                empties += 1
        assert empties > 15

    def test_bfi_cap_never_exceeded(self):
        for seed in range(10):
            model = TrafficModel(kind="ul_bfi", rate_in_burst_hz=2000.0,
                                 mean_burst_s=2.0, mean_gap_s=0.2, seed=seed)
            st_ = generate_arrivals(model, 30.0)
            assert max_rate_in_window(st_.times, 1.0) <= 10

    def test_bfi_much_sparser_than_dl(self):
        dl = generate_arrivals(TrafficModel(kind="dl_csi", seed=5), 60.0)
        bfi = generate_arrivals(TrafficModel(kind="ul_bfi", seed=5), 60.0)
        assert len(bfi) < len(dl) / 10

    def test_burstiness_exceeds_poisson(self):
        model = TrafficModel(kind="dl_csi", seed=3)
        st_ = generate_arrivals(model, 120.0)
        assert burstiness_index(st_.times, 120.0, 0.1) > 1.0

    def test_contention_reduces_sample_count(self):
        counts_1, counts_4 = [], []
        for seed in range(20):
            counts_1.append(len(generate_arrivals(
                TrafficModel(kind="dl_csi", contention_users=1, seed=seed), 60.0)))
            counts_4.append(len(generate_arrivals(
                TrafficModel(kind="dl_csi", contention_users=4, seed=seed), 60.0)))
        assert np.median(counts_4) < np.median(counts_1)

    def test_in_burst_rate_matches_axis_scale(self):
        # frames per 100 ms inside a burst should sit in the 50..200 range
        model = TrafficModel(kind="dl_csi", seed=11)
        st_ = generate_arrivals(model, 120.0)
        counts = windowed_counts(st_.times, 120.0, 0.1)
        busy = counts[counts > 10]
        assert busy.size > 0
        assert 50 <= np.median(busy) <= 200

    @given(seed=st.integers(0, 2 ** 31), duration=st.floats(0.1, 30.0))
    @settings(max_examples=25, deadline=None)
    def test_times_strictly_increasing_within_bounds(self, seed, duration):
        model = TrafficModel(kind="dl_csi", seed=seed)
        st_ = generate_arrivals(model, duration)
        t = st_.times
        if t.size:
            assert t[0] >= 0.0 and t[-1] <= duration
            assert np.all(np.diff(t) > 0)


class TestBlockDrawsMatchLoop:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("contention", [1, 4])
    def test_bytes_equal(self, kind, contention):
        for seed in range(3):
            model = TrafficModel(kind=kind, contention_users=contention, seed=seed)
            for duration in (1e-4, 5.0, 120.0):
                got = generate_arrivals(model, duration).times
                want = arrivals_loop(model, duration)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    # Per kind, a 4 s run with a burst that has more arrivals than its first
    # slice holds (seeds found by counting over seeds 0..29999), and 2 s
    # bursts at 20 kHz, whose slices outgrow the draws read ahead.
    @pytest.mark.parametrize("kind", KINDS)
    def test_bursts_spanning_several_blocks(self, kind):
        seed = {"ul_csi": 10333, "dl_csi": 29549, "ul_bfi": 22234}[kind]
        for model, duration in (
                (TrafficModel(kind=kind, rate_in_burst_hz=1000.0, mean_burst_s=0.06,
                              mean_gap_s=0.2, seed=seed), 4.0),
                (TrafficModel(kind=kind, rate_in_burst_hz=20000.0, mean_burst_s=2.0,
                              seed=5), 10.0)):
            got = generate_arrivals(model, duration).times
            assert got.tobytes() == arrivals_loop(model, duration).tobytes()

    def test_grown_slice_outgrows_the_read_ahead(self):
        # at 58.6 s a burst outgrows its first slice, and the doubled slice
        # runs past the draws read ahead (the one seed of 0..2999 found)
        model = TrafficModel(kind="dl_csi", rate_in_burst_hz=1000.0, mean_burst_s=0.06,
                             mean_gap_s=0.001, seed=312)
        got = generate_arrivals(model, 60.0).times
        assert got.tobytes() == arrivals_loop(model, 60.0).tobytes()

    @pytest.mark.parametrize("read_ahead", [2, 3, 17])
    def test_read_ahead_size_changes_nothing(self, monkeypatch, read_ahead):
        # a short read-ahead makes most bursts and gaps draw more
        monkeypatch.setattr(traffic, "_READ_AHEAD", read_ahead)
        for kind in KINDS:
            for seed in range(4):
                model = TrafficModel(kind=kind, rate_in_burst_hz=200.0, seed=seed)
                got = generate_arrivals(model, 20.0).times
                assert got.tobytes() == arrivals_loop(model, 20.0).tobytes()

    def test_burst_ending_exactly_on_an_arrival(self):
        # a window that ends on an in-burst arrival makes it the overshoot:
        # the arrivals before it are kept and it is not
        for kind in ("dl_csi", "ul_csi"):
            model = TrafficModel(kind=kind, seed=3)
            longer = arrivals_loop(model, 5.0)
            starts = np.flatnonzero(np.diff(longer) > 0.05) + 1   # after a gap
            for j in (0, 1, 17, starts[0] - 1, starts[0], starts[0] + 1, longer.size - 1):
                got = generate_arrivals(model, float(longer[j])).times
                assert got.tobytes() == longer[:j].tobytes()
                assert got.tobytes() == arrivals_loop(model, float(longer[j])).tobytes()


class TestRateCap:
    @pytest.mark.parametrize("before, kept", [(False, 11), (True, 10)])
    def test_window_edge(self, before, kept):
        # the 11th arrival falls exactly one window after the 10th-last kept
        # one, or one ulp before that: kept in the first case only
        times = 0.25 + np.arange(10) / 64
        edge = 0.25 + BFI_CAP_WINDOW_S
        times = np.append(times, np.nextafter(edge, 0.0) if before else edge)
        got = _thin_and_cap(times, KeepAll())
        assert got.tobytes() == cap_loop(times, KeepAll()).tobytes()
        assert got.size == kept

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_window_oracle(self, seed):
        # dyadic times a whole window apart, and one ulp before that, are common
        rng = np.random.default_rng(seed)
        grid = np.unique(rng.integers(0, 64 * 20, 900)) / 64
        times = np.unique(np.concatenate([grid, np.nextafter(grid[::3], 0.0)]))
        for thin in (KeepAll, lambda: np.random.default_rng(seed)):
            got = _thin_and_cap(times, thin())
            assert got.tobytes() == cap_loop(times, thin()).tobytes()
            assert max_rate_in_window(got, BFI_CAP_WINDOW_S) <= BFI_RATE_CAP_HZ


class TestModelValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            TrafficModel(kind="dl")

    def test_bad_durations(self):
        with pytest.raises(ValueError):
            TrafficModel(mean_burst_s=0.0)
        with pytest.raises(ValueError):
            TrafficModel(rate_in_burst_hz=-5.0)
        with pytest.raises(ValueError):
            TrafficModel(contention_users=0)

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_arrival_window(self, duration):
        with pytest.raises(ValueError, match="duration must be finite and > 0"):
            generate_arrivals(TrafficModel(), duration)
