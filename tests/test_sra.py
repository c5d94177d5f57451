"""Pipeline tests: segmentation, resampling, STFT, normalization, masks,
and dataset construction."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfsense.sra as sra_module
import sra_reference
from nfsense.scene import CsiSeries
from nfsense.sra import (NO_DATA_SENTINEL, SRA_BY_MOTION, ResampledSeries, Slice, SraConfig,
                         Spectrogram, _hampel, build_dataset, chop_labels,
                         extract_label_slices, load_dataset, load_spectrogram,
                         lowpass_taps, make_mask, minmax_normalize, normalize,
                         process_series, resample, save_dataset,
                         save_spectrogram, segment, spectrogram,
                         stft_magnitudes)

CONFIGS = [SraConfig(), SraConfig(fft_len=1024, hop=64), SRA_BY_MOTION["gesture"]]


def series_from_times(times, values=None):
    times = np.asarray(times, dtype=float)
    if values is None:
        values = np.exp(1j * np.zeros_like(times))
    return CsiSeries(timestamps=times, values=values)


def phase_series(times, phases):
    return CsiSeries(timestamps=np.asarray(times, dtype=float),
                     values=np.exp(1j * np.asarray(phases, dtype=float)))


# ---------------------------------------------------------------------------
# per-sample / per-frame / per-index reference implementations

def hampel_loop(values):
    n = values.size
    if n == 0:
        return values
    out = values.copy()
    k = 3
    for i in range(n):
        lo, hi = max(0, i - k), min(n, i + k + 1)
        window = values[lo:hi]
        med = np.median(window)
        mad = np.median(np.abs(window - med))
        if np.abs(values[i] - med) > 3.0 * 1.4826 * mad + 1e-300:
            out[i] = med
    return out


def stft_loop(rs, cfg):
    n = len(rs)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(cfg.fft_len) / cfg.fft_len))
    starts = np.arange(0, n - cfg.fft_len + 1, cfg.hop)
    mags = np.empty((cfg.n_f, starts.size))
    flags = np.empty(starts.size, dtype=bool)
    for j, s in enumerate(starts):
        chunk = rs.values[s:s + cfg.fft_len]
        spec = np.fft.rfft((chunk - chunk.mean()) * window)
        mags[:, j] = np.abs(spec[:cfg.n_f])
        flags[j] = rs.no_data[s:s + cfg.fft_len].mean() > 0.5
    times = (starts + cfg.fft_len / 2.0) / cfg.f_rs
    return mags, flags, times


def segment_loop(series, cfg, duration):
    t = series.timestamps
    n_win = int(math.ceil(duration / cfg.dt - 1e-9))
    idx = np.minimum((t / cfg.dt).astype(int), n_win - 1)
    labels = np.bincount(idx[(t >= 0) & (t <= duration)], minlength=n_win) > cfg.n_nsp
    slices = []
    start = 0
    for k in range(1, n_win + 1):
        if k == n_win or labels[k] != labels[start]:
            t1 = duration if k == n_win else k * cfg.dt
            slices.append(Slice(start * cfg.dt, t1, bool(labels[start])))
            start = k
    return slices


def label_slices_loop(spec, cfg):
    min_frames = int(math.ceil(cfg.min_label_slice_s / cfg.frame_dt_s))
    runs = []
    good = ~spec.no_data_cols
    start = None
    for k in range(len(good) + 1):
        if k < len(good) and good[k]:
            if start is None:
                start = k
        elif start is not None:
            if k - start >= min_frames:
                runs.append(spec.data[:, start:k].copy())
            start = None
    return runs


def bursty_times(rng, duration, dt):
    """Dense bursts and sparse gaps at window granularity, ending dense."""
    n_win = int(math.ceil(duration / dt - 1e-9))
    dense = rng.random(n_win) < 0.5
    dense[-3:] = True
    per_win = np.where(dense, 8, rng.integers(0, 3, n_win))
    t = np.concatenate([w * dt + np.sort(rng.uniform(0, dt, c)) for w, c in enumerate(per_win)])
    return np.unique(np.clip(t, 0.0, duration))


class TestArrayFormsMatchLoops:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_hampel_short_tracks_all_truncated(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal(n), rng.integers(-2, 3, n).astype(float),
                       np.zeros(n)):
            assert np.array_equal(_hampel(values, [n]), hampel_loop(values))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_hampel_truncated_edge_windows(self, n):
        # a spike at each end position lands in windows of 4, 5 and 6 real values
        rng = np.random.default_rng(100 + n)
        for spot in {0, 1, 2, n - 3, n - 2, n - 1} & set(range(n)):
            for base in (rng.standard_normal(n), rng.integers(-1, 2, n).astype(float),
                         np.linspace(-1.0, 1.0, n)):
                values = base.copy()
                values[spot] += 25.0
                assert _hampel(values, [n]).tobytes() == hampel_loop(values).tobytes()

    def test_hampel_seeded_tracks(self):
        rng = np.random.default_rng(12)
        for i in range(120):
            n = int(rng.integers(0, 200))
            if i % 2:
                values = np.cumsum(rng.standard_normal(n))
            else:
                values = rng.integers(-3, 4, n).astype(float)  # ties, MAD = 0
            if n and i % 3 == 0:
                values[rng.integers(0, n, 1 + n // 20)] += 40.0  # spikes
            assert np.array_equal(_hampel(values, [n]), hampel_loop(values))

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "long", "gesture"])
    def test_stft(self, cfg):
        rng = np.random.default_rng(cfg.fft_len)
        for extra in (0, 1, cfg.hop - 1, cfg.hop, 5 * cfg.hop + 3):
            n = cfg.fft_len + extra
            no_data = np.zeros(n, dtype=bool)
            no_data[rng.integers(0, n, n // 2)] = True
            no_data[:cfg.fft_len] = np.arange(cfg.fft_len) < cfg.fft_len // 2  # frame 0: exactly half
            rs = ResampledSeries(values=np.cumsum(rng.standard_normal(n)), no_data=no_data)
            got, want = stft_magnitudes(rs, cfg), stft_loop(rs, cfg)
            assert len(got) == 2
            for a, b in zip(got, want[:2]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert got[0].flags.c_contiguous  # downstream row sums depend on the layout
            spec = spectrogram(rs, cfg)       # the frame times are the spectrogram's axis
            assert np.array_equal(spec.t0_s + np.arange(spec.n_t) * spec.frame_dt_s, want[2])
            assert spec.df_hz == cfg.df_hz

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "long", "gesture"])
    def test_segment_runs_touching_the_last_window(self, cfg):
        rng = np.random.default_rng(int(cfg.f_cut))
        for duration in (3.0, 7.25, 12.3):
            ser = series_from_times(bursty_times(rng, duration, cfg.dt))
            got, want = segment(ser, cfg, duration), segment_loop(ser, cfg, duration)
            assert got == want and got[-1].non_sparse and got[-1].t1 == duration
            assert all(type(s.t0) is float and type(s.t1) is float for s in got)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "long", "gesture"])
    def test_label_slices_at_min_frames_and_last_frame(self, cfg):
        m = int(math.ceil(cfg.min_label_slice_s / cfg.frame_dt_s))
        # dense runs of m (kept), m - 1, m - 1 (dropped) and m + 7 (kept) frames
        runs = [(0, m), (m + 1, 2 * m), (2 * m + 2, 3 * m + 1), (3 * m + 3, 4 * m + 10)]
        for n_t in (4 * m + 10, 4 * m + 11):  # last run ends on / before the last frame
            flags = np.ones(n_t, dtype=bool)
            for a, b in runs:
                flags[a:b] = False
            data = np.random.default_rng(n_t).uniform(0, 1, (cfg.n_f, n_t))
            spec = Spectrogram(data=data, no_data_cols=flags, t0_s=0.0,
                               frame_dt_s=cfg.frame_dt_s, df_hz=cfg.df_hz)
            got, want = extract_label_slices(spec, cfg), label_slices_loop(spec, cfg)
            assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
            assert [g.shape[1] for g in got] == [m, m + 7]


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SraConfig(dt=0.0)
        with pytest.raises(ValueError):
            SraConfig(f_rs=1.5, f_cut=1.0)
        with pytest.raises(ValueError):
            SraConfig(n_f=200, fft_len=256)
        with pytest.raises(ValueError):
            SraConfig(hop=0)

    def test_presets(self):
        assert SRA_BY_MOTION["respiration"] == SraConfig()
        for motion in ("gesture", "activity"):
            g = SRA_BY_MOTION[motion]
            assert (g.f_cut, g.fft_len, g.hop) == (20.0, 64, 4)


class TestSegment:
    CFG = SraConfig()

    def test_uniform_dense_series_is_one_non_sparse_slice(self):
        t = np.arange(0, 3.0, 1 / 64)
        slices = segment(series_from_times(t), self.CFG)
        assert len(slices) == 1
        assert slices[0].non_sparse
        assert slices[0].t0 == 0.0 and slices[0].t1 == pytest.approx(3.0)

    def test_empty_series_is_one_sparse_slice(self):
        slices = segment(series_from_times([]), self.CFG, duration=2.0)
        assert len(slices) == 1
        assert not slices[0].non_sparse
        assert slices[0].t1 == 2.0

    def test_gap_produces_three_slices(self):
        t = np.concatenate([np.arange(0, 1.0, 1 / 64), np.arange(2.0, 3.0, 1 / 64)])
        slices = segment(series_from_times(t), self.CFG, duration=3.0)
        labels = [s.non_sparse for s in slices]
        assert labels == [True, False, True]
        assert slices[0].t1 == pytest.approx(1.0, abs=self.CFG.dt)
        assert slices[1].t1 == pytest.approx(2.0, abs=self.CFG.dt)

    def test_threshold_is_strict(self):
        # exactly n_nsp samples per window stays sparse; n_nsp+1 flips it
        cfg = SraConfig(n_nsp=2)
        t2 = np.array([0.01, 0.05])           # 2 samples in window 0
        assert not segment(series_from_times(t2), cfg, duration=0.1)[0].non_sparse
        t3 = np.array([0.01, 0.05, 0.09])     # 3 samples
        assert segment(series_from_times(t3), cfg, duration=0.1)[0].non_sparse

    def test_full_coverage_no_overlap(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0, 10.0, size=200))
        t = np.unique(t)
        slices = segment(series_from_times(t), self.CFG, duration=10.0)
        assert slices[0].t0 == 0.0
        assert slices[-1].t1 == pytest.approx(10.0)
        for a, b in zip(slices, slices[1:]):
            assert a.t1 == pytest.approx(b.t0)
            assert a.non_sparse != b.non_sparse


class TestResample:
    def test_dense_sinusoid_amplitude_preserved(self):
        cfg = SraConfig()
        t = np.arange(0, 24.0, 1 / 200)  # oversampled input
        x = np.sin(2 * np.pi * 0.25 * t)
        ser = phase_series(t, x)
        seg = segment(ser, cfg, duration=24.0)
        rs = resample(ser, seg, cfg, duration=24.0)
        assert not rs.no_data.any()
        grid = np.arange(len(rs)) / cfg.f_rs
        ref = np.sin(2 * np.pi * 0.25 * grid)
        # amplitude via RMS over the central half (filter transients excluded)
        inner = slice(len(rs) // 4, -len(rs) // 4)
        gain = np.sqrt(np.mean(rs.values[inner] ** 2) / np.mean(ref[inner] ** 2))
        assert abs(gain - 1.0) < 0.01

    def test_sparse_slice_tagging_and_bridging(self):
        cfg = SraConfig()
        # two isolated samples at 1.0 s and 2.0 s inside a 3 s window
        ser = phase_series([1.0, 2.0], [0.5, 0.5])
        seg = segment(ser, cfg, duration=3.0)
        assert all(not s.non_sparse for s in seg)
        rs = resample(ser, seg, cfg, duration=3.0)
        k1 = int(round(1.0 * cfg.f_rs))
        k2 = int(round(2.0 * cfg.f_rs))
        assert not rs.no_data[k1] and not rs.no_data[k2]
        assert rs.no_data.sum() == len(rs) - 2
        assert np.all(np.isfinite(rs.values))

    def test_sparse_samples_snap_half_to_even(self):
        cfg = SraConfig()
        t = (np.array([10, 11, 40, 41]) + 0.5) / cfg.f_rs  # exact ties between grid instants
        ser = phase_series(t, np.zeros(4))
        rs = resample(ser, segment(ser, cfg, 3.0), cfg, 3.0)
        assert np.flatnonzero(~rs.no_data).tolist() == [10, 12, 40, 42]

    def test_hampel_removes_spike(self):
        cfg = SraConfig()
        t = np.arange(0, 6.0, 1 / 64)
        clean = 0.3 * np.sin(2 * np.pi * 0.25 * t)
        spiked = clean.copy()
        spiked[200] += 10.0 * clean.std()
        rs_clean = resample(phase_series(t, clean), segment(phase_series(t, clean), cfg, 6.0), cfg, 6.0)
        rs_spiked = resample(phase_series(t, spiked), segment(phase_series(t, spiked), cfg, 6.0), cfg, 6.0)
        noise = np.max(np.abs(rs_spiked.values - rs_clean.values))
        assert noise < 3.0 * 0.01  # spike suppressed to the filter-ripple level

    def test_consistency_inside_non_sparse_slices(self):
        cfg = SraConfig()
        rng = np.random.default_rng(8)
        t = np.sort(rng.uniform(0, 5.0, size=600))
        t = np.unique(t)
        ser = phase_series(t, np.cos(t))
        seg = segment(ser, cfg, duration=5.0)
        rs = resample(ser, seg, cfg, duration=5.0)
        grid = np.arange(len(rs)) / cfg.f_rs
        for sl in seg:
            if sl.non_sparse:
                inside = (grid >= sl.t0) & (grid < sl.t1)
                assert not rs.no_data[inside].any()


@contextlib.contextmanager
def hampel_blocks(rows):
    """Run the Hampel filter in blocks of ``rows`` rows, so runs straddle blocks."""
    saved, sra_module._HAMPEL_BLOCK_ROWS = sra_module._HAMPEL_BLOCK_ROWS, rows
    try:
        yield
    finally:
        sra_module._HAMPEL_BLOCK_ROWS = saved


# phases with ties (MAD = 0), -0.0 beside 0.0, and spikes far off a smooth track
phases = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 40.0]), st.floats(-50.0, 50.0))


@st.composite
def sliced_links(draw):
    """(series, slices, duration, cfg): ordered slices over [0, duration].

    Slice bounds fall on grid instants, within the grid tolerances of one, or
    anywhere; a gap may separate two slices and the last one may stop short of
    ``duration``.  Samples sit on bounds, on grid instants, half way between
    two (ties), and several to a grid step (duplicate snaps); the labels are
    drawn apart from the sample counts, so non-sparse slices hold 0 or 1
    samples and sparse ones hold many.
    """
    cfg = SraConfig(f_rs=draw(st.sampled_from([64.0, 20.0, 8.0])))
    step = 1.0 / cfg.f_rs
    duration = draw(st.integers(4, 40)) * step + draw(st.sampled_from([0.0, 0.3 * step]))
    nudge = st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 5e-12, -5e-12, 5e-10, 0.37 * step])
    cuts = sorted({min(max(draw(st.integers(1, 39)) * step + draw(nudge), 0.0), duration)
                   for _ in range(draw(st.integers(0, 6)))})
    bounds = [0.0, *cuts, duration]
    slices = []
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        if draw(st.integers(0, 5)) == 0:     # a gap: the slice starts late
            t0 = min(t0 + draw(st.sampled_from([step, 0.5 * step])), t1)
        slices.append(Slice(t0, t1, draw(st.booleans())))
    if draw(st.booleans()):                   # the last slice stops short
        last = slices[-1]
        slices[-1] = Slice(last.t0, max(last.t0, last.t1 - 0.5 * step), last.non_sparse)
    times = []
    for sl in slices:
        n = draw(st.integers(0, 12))
        offsets = st.sampled_from([0.0, 0.5, 1.0, 0.1, 0.25, 2.0, 2.5, 3.0, 1.0 / 3])
        times += [min(sl.t0 + draw(offsets) * step * draw(st.integers(0, 4)), sl.t1)
                  for _ in range(n)]
    times = np.unique(times)
    values = np.exp(1j * np.array(draw(st.lists(phases, min_size=times.size,
                                                max_size=times.size))))
    return CsiSeries(timestamps=times, values=values), slices, duration, cfg


def same_resample(series, slices, cfg, duration):
    a = resample(series, slices, cfg, duration)
    b = sra_reference.resample(series, slices, cfg, duration)
    return a.values.tobytes() == b.values.tobytes() and a.no_data.tobytes() == b.no_data.tobytes()


class TestResampleMatchesPerSliceReference:
    @given(link=sliced_links(), rows=st.sampled_from([1, 3, 7, 1024]))
    @settings(max_examples=150, deadline=None)
    def test_drawn_slices(self, link, rows):
        series, slices, duration, cfg = link
        with hampel_blocks(rows):
            assert same_resample(series, slices, cfg, duration)
            assert same_resample(series, segment(series, cfg, duration), cfg, duration)

    CFG = SraConfig()
    STEP = 1.0 / 64.0

    @pytest.mark.parametrize("times, slices", [
        # non-sparse slices with 0, 1 and 2 samples, between sparse ones
        ([0.1, 0.5, 0.55, 1.2], [(0.0, 0.3, True), (0.3, 0.6, True), (0.6, 0.9, True),
                                 (0.9, 1.3, False), (1.3, 2.0, True)]),
        # bounds on grid instants; a sample on a bound belongs to the next slice
        ([0.25, 0.5, 0.515625, 0.75, 1.0], [(0.0, 0.5, True), (0.5, 1.0, False),
                                              (1.0, 2.0, True)]),
        # many samples of a sparse slice snap to one grid instant
        ([0.3, 0.301, 0.302, 0.303, 0.9, 0.901], [(0.0, 1.0, False), (1.0, 2.0, True)]),
        # the last slice ends at the duration and holds a sample there
        ([0.5, 1.0, 1.5, 2.0], [(0.0, 1.0, True), (1.0, 2.0, True)]),
        # a slice shorter than a grid step, and a gap between slices
        ([0.2, 0.21, 1.5, 1.6], [(0.0, 0.5, True), (0.5, 0.51, True), (1.0, 2.0, True)]),
        # a bound within the grid tolerance of an instant: both slices claim it
        ([0.2, 0.3, 0.4, 0.5] + [0.5 + 5e-12 + i * 0.01 for i in range(10)],
         [(0.0, 0.5 + 5e-12, False), (0.5 + 5e-12, 2.0, True)]),
        ([0.1, 0.2, 0.3, 0.5 + 1e-11, 0.6, 0.7],
         [(0.0, 0.5 - 5e-12, True), (0.5 - 5e-12, 2.0, False)]),
        ([], [(0.0, 1.0, True), (1.0, 2.0, False)]),
    ])
    def test_named_cases(self, times, slices):
        series = phase_series(times, np.cos(np.arange(len(times))))
        assert same_resample(series, [Slice(*s) for s in slices], self.CFG, 2.0)

    def test_long_dense_run_across_blocks(self):
        t = np.arange(0, 40.0, 1 / 200)
        rng = np.random.default_rng(4)
        phase = np.cumsum(rng.standard_normal(t.size)) * 0.01
        phase[rng.integers(0, t.size, 50)] += 3.0
        series = phase_series(t, phase)
        assert same_resample(series, segment(series, self.CFG, 40.0), self.CFG, 40.0)

    BURSTS = np.concatenate([b + np.arange(30) / 1000.0 for b in np.arange(0.0, 2.0, 0.1)])

    @pytest.mark.parametrize("times, slices", [
        # every other sample on a grid instant
        (np.arange(0.0, 2.0, 1 / 128), [(0.0, 2.0, True)]),
        # instant 61/64 on a dense slice's last sample and 62/64 clamped to it,
        # with a dense slice after it
        (np.concatenate([np.arange(0.0, 0.945, 0.01), [61 / 64], np.arange(1.0, 2.0, 0.01)]),
         [(0.0, 0.98, True), (0.98, 2.0, True)]),
        # 1 kHz bursts on the 64 Hz grid: np.interp reads two of each burst's samples
        (BURSTS, None),
    ], ids=["instant-on-sample", "instant-on-last-sample", "1khz-bursts"])
    def test_knots_np_interp_reads(self, times, slices):
        i = np.arange(len(times))
        series = phase_series(times, np.cos(i) + 2.5 * (i % 7 == 3))
        slices = segment(series, self.CFG, 2.0) if slices is None else [Slice(*s) for s in slices]
        assert any(s.non_sparse for s in slices)
        assert same_resample(series, slices, self.CFG, 2.0)

    @pytest.mark.parametrize("slices", [
        [(1.0, 2.0, True), (0.0, 1.0, False)],     # out of time order
        [(0.0, 1.2, True), (1.0, 2.0, False)],     # overlapping
        [(0.0, 1.0, True), (1.0, 0.5, False)],     # ends before it starts
    ])
    def test_unordered_or_overlapping_slices_rejected(self, slices):
        series = phase_series([0.5, 1.5], [0.0, 1.0])
        with pytest.raises(ValueError, match="time order"):
            resample(series, [Slice(*s) for s in slices], self.CFG, 2.0)


class TestHampelRuns:
    @given(runs=st.lists(st.lists(phases, max_size=20), max_size=8),
           rows=st.sampled_from([1, 2, 5, 7, 1024]))
    @settings(max_examples=150, deadline=None)
    def test_runs_match_one_call_per_run(self, runs, rows):
        values = np.array([v for run in runs for v in run], dtype=float)
        lengths = np.array([len(run) for run in runs], dtype=int)
        expected = [sra_reference._hampel(np.array(run, dtype=float)) for run in runs]
        with hampel_blocks(rows):
            got = _hampel(values, lengths)
        assert got.tobytes() == np.concatenate([np.zeros(0), *expected]).tobytes()

    @given(runs=st.lists(st.lists(phases, max_size=12), max_size=6), data=st.data(),
           rows=st.sampled_from([1, 2, 5, 1024]))
    @settings(max_examples=150, deadline=None)
    def test_subset_matches_full_filter(self, runs, data, rows):
        values = np.array([v for run in runs for v in run], dtype=float)
        lengths = np.array([len(run) for run in runs], dtype=int)
        keep = data.draw(st.lists(st.booleans(), min_size=values.size, max_size=values.size))
        at = np.flatnonzero(np.array(keep, dtype=bool))
        full = np.concatenate([np.zeros(0)] + [sra_reference._hampel(np.array(run, dtype=float))
                                               for run in runs])
        with hampel_blocks(rows):
            assert _hampel(values, lengths, at).tobytes() == full[at].tobytes()

    def test_subset_at_run_edges(self):
        # runs of 1, 2 and 9 samples, -0.0 beside 0.0, a spike in the long run
        runs = [[-0.0], [0.0, -0.0], [0.0, -0.0, 0.0, 1.0, 40.0, 1.0, 1.0, -0.0, 0.0]]
        values = np.array([v for run in runs for v in run])
        lengths = np.array([len(run) for run in runs])
        ends = np.cumsum(lengths)
        at = np.unique(np.concatenate([ends - lengths, ends - 1, [7]]))
        full = np.concatenate([sra_reference._hampel(np.array(run)) for run in runs])
        assert _hampel(values, lengths, at).tobytes() == full[at].tobytes()
        assert _hampel(values, lengths, [7])[0] == 1.0       # the spike is replaced


class TestSpectrogram:
    def test_tone_at_bin_center(self):
        cfg = SraConfig()
        n = cfg.fft_len * 4
        grid = np.arange(n) / cfg.f_rs
        tone_hz = 4 * cfg.df_hz  # bin 4
        from nfsense.sra import ResampledSeries
        rs = ResampledSeries(values=np.sin(2 * np.pi * tone_hz * grid),
                             no_data=np.zeros(n, dtype=bool))
        spec = spectrogram(rs, cfg)
        assert np.all(np.argmax(spec.data, axis=0) == 4)

    def test_too_short_series_rejected(self):
        cfg = SraConfig()
        from nfsense.sra import ResampledSeries
        rs = ResampledSeries(values=np.zeros(cfg.fft_len - 1),
                             no_data=np.zeros(cfg.fft_len - 1, dtype=bool))
        with pytest.raises(ValueError):
            spectrogram(rs, cfg)

    def test_all_no_data_gives_sentinel_columns(self):
        cfg = SraConfig()
        from nfsense.sra import ResampledSeries
        n = cfg.fft_len * 2
        rs = ResampledSeries(values=np.zeros(n), no_data=np.ones(n, dtype=bool))
        spec = spectrogram(rs, cfg)
        assert spec.no_data_cols.all()
        assert np.all(spec.data == -1.0)

    def test_parseval_pre_normalization(self):
        cfg = SraConfig()
        rng = np.random.default_rng(9)
        n = cfg.fft_len * 2
        from nfsense.sra import ResampledSeries
        rs = ResampledSeries(values=rng.standard_normal(n),
                             no_data=np.zeros(n, dtype=bool))
        window = 0.5 * (1 - np.cos(2 * np.pi * np.arange(cfg.fft_len) / cfg.fft_len))
        chunk = rs.values[:cfg.fft_len]
        windowed = (chunk - chunk.mean()) * window
        full = np.fft.fft(windowed)
        time_energy = np.sum(windowed ** 2)
        freq_energy = np.sum(np.abs(full) ** 2) / cfg.fft_len
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_values_always_within_bounds(self):
        cfg = SraConfig()
        rng = np.random.default_rng(10)
        t = np.sort(rng.uniform(0, 20.0, size=3000))
        t = np.unique(t)
        ser = phase_series(t, np.sin(t) + 0.1 * rng.standard_normal(t.size))
        spec = process_series(ser, cfg, duration=20.0)
        assert spec.data.min() >= -1.0 and spec.data.max() <= 1.0


class TestNormalize:
    def test_three_values(self):
        raw = np.array([[2.0, 4.0, 6.0]])
        flags = np.zeros(3, dtype=bool)
        out = minmax_normalize(raw, flags)
        assert np.allclose(out, [[0.0, 0.5, 1.0]])

    def test_constant_maps_to_zero(self):
        raw = np.full((4, 5), 3.3)
        out = minmax_normalize(raw, np.zeros(5, dtype=bool))
        assert np.all(out == 0.0)

    def test_flagged_columns_sentinel_and_order_preserved(self):
        raw = np.array([[1.0, 9.0, 5.0], [3.0, 7.0, 2.0]])
        flags = np.array([False, True, False])
        out = minmax_normalize(raw, flags)
        assert np.all(out[:, 1] == -1.0)
        valid = out[:, [0, 2]]
        assert (np.argsort(raw[:, [0, 2]].ravel()) == np.argsort(valid.ravel())).all()

    def test_idempotent_on_normalized_input(self):
        rng = np.random.default_rng(11)
        raw = rng.uniform(0, 1, size=(8, 12))
        raw.ravel()[rng.choice(raw.size, 2, replace=False)] = (0.0, 1.0)
        flags = np.zeros(12, dtype=bool)
        once = minmax_normalize(raw, flags)
        twice = minmax_normalize(once, flags)
        assert np.allclose(once, twice, atol=1e-15)

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=20, deadline=None)
    def test_range_property(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(0, 10, size=(6, 9))
        flags = rng.random(9) < 0.3
        spec = normalize(raw, flags, 2.0, 0.25, 0.25)
        assert spec.data.min() >= -1.0 and spec.data.max() <= 1.0
        if (~flags).any():
            assert spec.data[:, ~flags].min() >= 0.0


class TestMakeMask:
    def test_extremes(self):
        assert not make_mask(50, 0.0, 8.0, 1).any()
        assert make_mask(50, 1.0, 8.0, 1).all()

    def test_statistics(self):
        fractions, runs = [], []
        for seed in range(100):
            mask = make_mask(2000, 0.3, 8.0, seed)
            fractions.append(mask.mean())
            # mean run length of True segments
            padded = np.concatenate([[False], mask, [False]])
            starts = np.where(np.diff(padded.astype(int)) == 1)[0]
            stops = np.where(np.diff(padded.astype(int)) == -1)[0]
            if starts.size:
                runs.append(np.mean(stops - starts))
        assert 0.27 <= np.mean(fractions) <= 0.33
        assert 7.2 <= np.mean(runs) <= 8.8

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            make_mask(10, 1.5, 8.0, 0)


class TestBuildDataset:
    def _labels(self, n, width=40, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.uniform(0, 1, size=(8, width)) for _ in range(n)]

    def test_split_counts(self):
        ds = build_dataset(self._labels(10), masks_per_label=1, mask_fraction=0.3,
                           mean_run_frames=4.0, split_fraction=0.7, seed=0)
        assert len(ds.train) == 7 and len(ds.test) == 3

    def test_identity_pairs_with_zero_fraction(self):
        ds = build_dataset(self._labels(4), masks_per_label=1, mask_fraction=0.0,
                           mean_run_frames=4.0, seed=0)
        for x, y in list(ds.train) + list(ds.test):
            assert np.array_equal(x, y)

    def test_masked_columns_are_sentinel(self):
        ds = build_dataset(self._labels(4), masks_per_label=2, mask_fraction=0.5,
                           mean_run_frames=3.0, seed=1)
        for x, y in ds.train:
            cols = np.all(x == -1.0, axis=0)
            assert cols.any()
            assert np.array_equal(x[:, ~cols], y[:, ~cols])

    def test_determinism_via_serialization(self, tmp_path):
        labels = self._labels(6)
        a = build_dataset(labels, 2, 0.3, 4.0, 0.7, seed=3)
        b = build_dataset(labels, 2, 0.3, 4.0, 0.7, seed=3)
        da, db = tmp_path / "a", tmp_path / "b"
        save_dataset(a, da)
        save_dataset(b, db)
        for sub in ("train", "test"):
            fa = sorted((da / sub).iterdir())
            fb = sorted((db / sub).iterdir())
            assert [f.name for f in fa] == [f.name for f in fb]
            for pa, pb in zip(fa, fb):
                assert pa.read_bytes() == pb.read_bytes()

    def test_no_labels_raises(self):
        with pytest.raises(ValueError):
            build_dataset([], 1, 0.3, 4.0)

    def test_round_trip(self, tmp_path):
        ds = build_dataset(self._labels(3), 1, 0.4, 4.0, seed=2)
        save_dataset(ds, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded.train) == len(ds.train)
        for (x1, y1), (x2, y2) in zip(ds.train, loaded.train):
            assert np.allclose(x1, x2, atol=1e-8)
            assert np.allclose(y1, y2, atol=1e-8)

    def _saved(self, tmp_path):
        save_dataset(build_dataset(self._labels(3), 1, 0.4, 4.0, seed=2), tmp_path / "ds")
        return tmp_path / "ds", tmp_path / "ds" / "train" / "0000.0000.x", \
            tmp_path / "ds" / "train" / "0000.y"

    def _rejects(self, ds, named, match):
        with pytest.raises(ValueError, match=match) as exc:
            load_dataset(ds)
        assert str(named) in str(exc.value)
        return str(exc.value)

    def test_missing_target_named(self, tmp_path):
        ds, _, yf = self._saved(tmp_path)
        yf.unlink()
        self._rejects(ds, yf, "missing")

    def test_shape_mismatch_named(self, tmp_path):
        # the first label is one row short, so the second is named against it
        ds, _, yf = self._saved(tmp_path)
        yf.write_text("\n".join(yf.read_text().splitlines()[:-1]) + "\n")
        self._rejects(ds, yf, "0001.y: 8 rows, expected 7 as in ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_named(self, tmp_path, value):
        ds, _, yf = self._saved(tmp_path)
        rows = yf.read_text().splitlines()
        rows[1] = " ".join([value] + rows[1].split()[1:])
        yf.write_text("\n".join(rows) + "\n")
        self._rejects(ds, yf, "non-finite")

    def test_non_numeric_value_named(self, tmp_path):
        ds, _, yf = self._saved(tmp_path)
        rows = yf.read_text().splitlines()
        rows[0] = " ".join(["abc"] + rows[0].split()[1:])
        yf.write_text("\n".join(rows) + "\n")
        self._rejects(ds, yf, "convert")

    def test_ragged_file_named(self, tmp_path):
        ds, _, yf = self._saved(tmp_path)
        rows = yf.read_text().splitlines()
        rows[2] = " ".join(rows[2].split()[:-1])
        yf.write_text("\n".join(rows) + "\n")
        self._rejects(ds, yf, "columns")

    def test_empty_file_named(self, tmp_path):
        ds, _, yf = self._saved(tmp_path)
        for text in ("", "\n"):
            yf.write_text(text)
            self._rejects(ds, yf, "no values")

    def test_blank_line_named(self, tmp_path):
        ds, _, yf = self._saved(tmp_path)
        rows = yf.read_text().splitlines()
        yf.write_text("\n".join(rows[:3] + [""] + rows[3:]) + "\n")
        self._rejects(ds, yf, "blank line")

    @pytest.mark.parametrize("mask", [
        "0 1 " * 19 + "0 2\n",          # a token other than 0/1
        "0 1 " * 19 + "0\n",            # 39 tokens
        "0 1 " * 20 + "\n0\n",          # a second line
        "0 1 " * 20 + "\n\n",           # a blank second line
        "",
        "1.0 " * 40 + "\n"])
    def test_bad_mask_named(self, tmp_path, mask):
        ds, xf, yf = self._saved(tmp_path)
        xf.write_text(mask)
        assert str(yf) in self._rejects(ds, xf, "one line of 40 0/1 tokens")

    def test_mask_without_label_named(self, tmp_path):
        ds, xf, _ = self._saved(tmp_path)
        stray = xf.with_name("0009.0000.x")
        stray.write_bytes(xf.read_bytes())
        self._rejects(ds, stray, "0009.y is missing")

    def test_label_without_mask_named(self, tmp_path):
        ds, xf, yf = self._saved(tmp_path)
        xf.unlink()
        self._rejects(ds, yf, "no 0000.JJJJ.x mask names it")

    def test_older_pair_format_refused(self, tmp_path):
        # NNNN.x held the input as a table of the label's values and the -1 sentinel
        ds, xf, yf = self._saved(tmp_path)
        old = xf.with_name("0000.x")
        old.write_bytes(yf.read_bytes())
        xf.unlink()
        err = self._rejects(ds, old, "older pair format: rebuild the dataset with nfsense "
                                     "build-dataset")
        assert "0000.x: must be one line of 40 0/1 tokens" in err

    def test_files_store_each_label_once(self, tmp_path):
        ds = build_dataset(self._labels(3), 2, 0.4, 4.0, seed=2)
        save_dataset(ds, tmp_path / "ds")
        assert sorted(p.name for p in (tmp_path / "ds" / "train").iterdir()) == [
            "0000.0000.x", "0000.0001.x", "0000.y", "0001.0000.x", "0001.0001.x", "0001.y"]
        loaded = load_dataset(tmp_path / "ds")
        for (_, masks), (_, masks2) in zip(ds.train_labels + ds.test_labels,
                                           loaded.train_labels + loaded.test_labels):
            assert masks2.dtype == bool and np.array_equal(masks, masks2)
        for x, y in loaded.train + loaded.test:
            hidden = np.all(x == NO_DATA_SENTINEL, axis=0)
            assert np.array_equal(np.where(hidden, NO_DATA_SENTINEL, y), x)


    def test_labels_load_in_the_order_of_their_integer_keys(self, tmp_path):
        # by name, 10000.y would sort before 9999.y, and 9999.10000.x before 9999.9999.x
        sub = tmp_path / "ds" / "train"
        sub.mkdir(parents=True)
        for key, value in (("9999", 0.25), ("10000", 0.75)):
            (sub / f"{key}.y").write_text(f"{value} {value}\n")
            (sub / f"{key}.9999.x").write_text("1 0\n")
            (sub / f"{key}.10000.x").write_text("0 1\n")
        loaded = load_dataset(tmp_path / "ds")
        assert [label[0, 0] for label, _ in loaded.train_labels] == [0.25, 0.75]
        for _, masks in loaded.train_labels:
            assert masks.tolist() == [[True, False], [False, True]]


class TestLabelSlices:
    def test_extraction_and_chopping(self):
        cfg = SraConfig()
        n_t = 100
        data = np.random.default_rng(1).uniform(0, 1, size=(cfg.n_f, n_t))
        flags = np.zeros(n_t, dtype=bool)
        flags[30:40] = True  # a sentinel run splits the spectrogram
        data[:, flags] = -1.0
        from nfsense.sra import Spectrogram
        spec = Spectrogram(data=data, no_data_cols=flags, t0_s=0.0,
                           frame_dt_s=cfg.frame_dt_s, df_hz=cfg.df_hz)
        labels = extract_label_slices(spec, cfg)
        assert [lab.shape[1] for lab in labels] == [30, 60]
        chopped = chop_labels(labels, 25, 20)
        assert all(lab.shape[1] <= 25 for lab in chopped)

    def test_short_runs_dropped(self):
        cfg = SraConfig()  # min 4 s = 16 frames at 0.25 s
        data = np.zeros((cfg.n_f, 10))
        from nfsense.sra import Spectrogram
        spec = Spectrogram(data=data, no_data_cols=np.zeros(10, dtype=bool), t0_s=0.0,
                           frame_dt_s=cfg.frame_dt_s, df_hz=cfg.df_hz)
        assert extract_label_slices(spec, cfg) == []


class TestSpectrogramIO:
    def test_round_trip(self, tmp_path):
        cfg = SraConfig()
        rng = np.random.default_rng(3)
        n_t = 20
        data = rng.uniform(0, 1, size=(cfg.n_f, n_t))
        flags = rng.random(n_t) < 0.3
        data[:, flags] = -1.0
        from nfsense.sra import Spectrogram
        spec = Spectrogram(data=data, no_data_cols=flags, t0_s=2.0, frame_dt_s=0.25,
                           df_hz=cfg.df_hz)
        path = tmp_path / "spec.txt"
        save_spectrogram(spec, path)
        loaded = load_spectrogram(path)
        assert np.allclose(loaded.data, spec.data, atol=1e-8)
        assert np.array_equal(loaded.no_data_cols, spec.no_data_cols)
        assert (loaded.t0_s, loaded.frame_dt_s, loaded.df_hz) == (2.0, 0.25, cfg.df_hz)
        header = path.read_text().splitlines()[0].split()
        assert header[0] == str(cfg.n_f) and header[1] == str(n_t)

    def test_non_dyadic_axes_round_trip_byte_identical(self, tmp_path):
        # 64 Hz over 96 samples: df_hz = 2/3 Hz, which no short decimal holds
        cfg = SraConfig(fft_len=96, hop=7)
        n = 4 * cfg.fft_len
        values = np.sin(2 * np.pi * 3.0 * np.arange(n) / cfg.f_rs)
        spec = spectrogram(ResampledSeries(values=values, no_data=np.zeros(n, dtype=bool)), cfg)
        first, again = tmp_path / "first.txt", tmp_path / "again.txt"
        save_spectrogram(spec, first)
        loaded = load_spectrogram(first)
        save_spectrogram(loaded, again)
        assert again.read_bytes() == first.read_bytes()
        assert loaded.df_hz == spec.df_hz == 64.0 / 96
        assert loaded.frame_dt_s == pytest.approx(7 / 64.0, abs=1e-9)

    GOOD = ["2 3 0.0 0.25 0.25", "0.1 0.2 0.3", "0.4 0.5 0.6", "0 1 0"]

    @pytest.mark.parametrize("line, text, match", [
        (0, "2 3 0.0", "header"),                  # three header fields
        (0, "2 3 0.0 0.25 0.25 1", "header"),      # six
        (0, "2 3 0.0 0.25", "lacks df_hz.*build-dataset"),   # four: the older format
        (0, "2 x 0.0 0.25", "header"),
        (0, "2 3 nan 0.25", "header"),
        (0, "2 x 0.0 0.25 0.25", "header"),
        (0, "2 3 nan 0.25 0.25", "header"),
        (0, "2 3 0.0 0.25 0", "df_hz > 0"),
        (0, "2 3 0.0 0.25 inf", "df_hz > 0"),
        (2, "0.4 0.5", "line 3 has 2 values"),     # short data row
        (3, None, "expected 2 data rows and a flag row"),  # flag row missing
        (3, "0 1", "line 4 has 2 values"),         # short flag row
        (3, "0 2 1", "0 and 1"),
        (3, "0 0.5 1", "0 and 1"),
        (1, "0.1 nan 0.3", "non-finite"),
        (2, "0.4 inf 0.6", "non-finite"),
        (1, "0.1 abc 0.3", "abc"),
        (1, "0.1 1_0 0.3", "line 2: '_'"),        # float() reads 10.0, np.loadtxt fails
        (0, "2 3 0.0 0.2_5", "line 1: '_'"),
        (2, "0.4 \u0665 0.6", "line 3: .* non-ASCII"),   # an Arabic-Indic 5
        (4, "garbage here", "line 5: text after the flag row"),
        (4, "\n0", "line 6: text after the flag row"),
    ])
    def test_malformed_file_named(self, tmp_path, line, text, match):
        lines = list(self.GOOD)
        if text is None:
            del lines[line]
        else:
            lines[line:line + 1] = [text]
        path = tmp_path / "bad_spec.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=match) as exc:
            load_spectrogram(path)
        assert str(path) in str(exc.value)

    def test_well_formed_file_loads(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("\n".join(self.GOOD) + "\n")
        spec = load_spectrogram(path)
        assert spec.data.shape == (2, 3)
        assert spec.no_data_cols.tolist() == [False, True, False]


class TestLowpass:
    def test_passband_and_stopband(self):
        taps = lowpass_taps(1.0, 64.0)
        w = np.fft.rfftfreq(4096, 1 / 64.0)
        resp = np.abs(np.fft.rfft(taps, 4096))
        assert resp[np.argmin(np.abs(w - 0.25))] == pytest.approx(1.0, abs=0.01)
        assert resp[np.argmin(np.abs(w - 4.0))] < 0.01
