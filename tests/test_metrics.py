"""Metric tests: recovery error, rate estimation, entropy, CSI/BFI stats."""

import math

import numpy as np
import pytest

from nfsense.metrics import (band_energy, compare_csi_bfi, estimate_rate,
                             recovery_mse, spectral_entropy, welch_psd,
                             window_stds)
from nfsense.sra import Spectrogram


def welch_loop(track, rate_hz, segment_len=256):
    """Per-segment reference for :func:`welch_psd`."""
    track = np.asarray(track, dtype=float)
    seg = min(segment_len, track.size)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(seg) / seg))
    norm = rate_hz * float(np.sum(window ** 2))
    hop = max(seg // 2, 1)
    psds = []
    for s in range(0, track.size - seg + 1, hop):
        chunk = track[s:s + seg]
        chunk = chunk - chunk.mean()
        spec = np.abs(np.fft.rfft(chunk * window)) ** 2 / norm
        spec[1:-1] *= 2.0
        psds.append(spec)
    return np.fft.rfftfreq(seg, d=1.0 / rate_hz), np.mean(psds, axis=0)


def make_spec(data, flags=None, df_hz=0.25):
    data = np.asarray(data, dtype=float)
    if flags is None:
        flags = np.zeros(data.shape[1], dtype=bool)
    return Spectrogram(data=data, no_data_cols=flags, t0_s=0.0, frame_dt_s=0.25, df_hz=df_hz)


def tone_spec(freq_hz, n_f=32, n_t=40, df_hz=0.0625, width=0.8):
    """Averaged-spectrum-like columns with a smooth peak at freq_hz."""
    bins = np.arange(n_f) * df_hz
    col = np.exp(-0.5 * ((bins - freq_hz) / (width * df_hz)) ** 2)
    data = np.tile(col[:, None], (1, n_t))
    return make_spec(data, df_hz=df_hz)


class TestRecoveryMse:
    def test_identical_is_zero(self):
        a = np.random.default_rng(0).uniform(0, 1, (4, 6))
        assert recovery_mse(a, a) == 0.0

    def test_constant_offset(self):
        a = np.zeros((5, 8))
        assert recovery_mse(a + 0.1, a) == pytest.approx(0.01, rel=1e-12)

    def test_masked_column_fraction(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(0, 1, (8, 10))
        rec = truth.copy()
        rec[:, 2] += 0.3
        rec[:, 7] += 0.3
        expected = (2 / 10) * 0.09
        assert recovery_mse(rec, truth) == pytest.approx(expected, rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 1, (4, 5)), rng.uniform(0, 1, (4, 5))
        assert recovery_mse(a, b) == recovery_mse(b, a)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            recovery_mse(np.zeros((2, 3)), np.zeros((3, 2)))


class TestEstimateRate:
    def test_tone_at_quarter_hz(self):
        spec = tone_spec(0.25)
        est = estimate_rate(spec, (0.1, 0.7))
        assert est.bpm == pytest.approx(15.0, abs=0.3)

    def test_off_bin_tone(self):
        spec = tone_spec(0.30)
        est = estimate_rate(spec, (0.1, 0.7))
        assert est.bpm == pytest.approx(18.0, abs=0.5)

    def test_scale_invariance(self):
        spec = tone_spec(0.25)
        scaled = make_spec(spec.data * 7.3, df_hz=spec.df_hz)
        assert estimate_rate(scaled).bpm == estimate_rate(spec).bpm

    def test_sentinel_columns_ignored(self):
        spec = tone_spec(0.25, n_t=20)
        flags = np.zeros(20, dtype=bool)
        flags[:10] = True
        data = spec.data.copy()
        data[:, flags] = -1.0
        spec2 = make_spec(data, flags, df_hz=spec.df_hz)
        assert estimate_rate(spec2).bpm == pytest.approx(15.0, abs=0.3)

    def test_all_sentinel_raises(self):
        spec = tone_spec(0.25, n_t=5)
        flags = np.ones(5, dtype=bool)
        bad = make_spec(np.full_like(spec.data, -1.0), flags, df_hz=spec.df_hz)
        with pytest.raises(ValueError, match="no data"):
            estimate_rate(bad)

    def test_band_outside_coverage(self):
        with pytest.raises(ValueError, match="band"):
            estimate_rate(tone_spec(0.25), (50.0, 60.0))


class TestSpectralEntropy:
    def test_single_bin_is_zero(self):
        data = np.zeros((32, 6))
        data[4, :] = 1.0
        assert spectral_entropy(make_spec(data)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_log2_nf(self):
        data = np.full((32, 4), 0.5)
        assert spectral_entropy(make_spec(data)) == pytest.approx(5.0, rel=1e-12)

    def test_all_zero_column_falls_back_to_uniform(self):
        data = np.zeros((16, 3))
        data[2, 0] = 1.0  # column 0 is spiky, columns 1-2 all zero
        h = spectral_entropy(make_spec(data))
        assert h == pytest.approx((0.0 + 4.0 + 4.0) / 3.0, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            data = rng.uniform(0, 1, (32, 7))
            h = spectral_entropy(make_spec(data))
            assert 0.0 <= h <= 5.0


class TestCompareCsiBfi:
    def test_constant_tracks_zero_std(self):
        rep = compare_csi_bfi(np.ones(500), np.full(500, 2.0), rate_hz=100.0)
        assert np.allclose(rep.csi_window_std, 0.0)
        assert np.allclose(rep.bfi_window_std, 0.0)

    def test_lowpassed_noise_is_more_stable(self):
        rng = np.random.default_rng(4)
        noise = rng.standard_normal(4000)
        kernel = np.ones(25) / 25.0
        smooth = np.convolve(noise, kernel, mode="same")
        rep = compare_csi_bfi(noise, smooth, rate_hz=100.0)
        assert np.median(rep.bfi_window_std) < np.median(rep.csi_window_std)

    def test_high_frequency_power_fraction(self):
        rng = np.random.default_rng(5)
        t = np.arange(8000) / 100.0
        fast = np.sin(2 * np.pi * 0.3 * t) + 0.8 * np.sin(2 * np.pi * 12.0 * t) \
            + 0.1 * rng.standard_normal(t.size)
        kernel = np.ones(33) / 33.0
        slow = np.convolve(fast, kernel, mode="same")
        rep = compare_csi_bfi(fast, slow, rate_hz=100.0)

        def hf_fraction(freqs, psd):
            return psd[freqs > 5.0].sum() / psd.sum()

        assert hf_fraction(rep.bfi_psd_freqs, rep.bfi_psd) \
            < hf_fraction(rep.csi_psd_freqs, rep.csi_psd)

    def test_short_track_rejected(self):
        with pytest.raises(ValueError):
            window_stds(np.ones(5), rate_hz=100.0, window_s=0.1)

    def test_welch_tone_power(self):
        t = np.arange(4096) / 64.0
        track = np.sqrt(2.0) * np.sin(2 * np.pi * 4.0 * t)  # unit variance
        freqs, psd = welch_psd(track, 64.0)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 has only trapz
        total = trapezoid(psd, freqs)
        assert total == pytest.approx(1.0, rel=0.05)

    def test_welch_matches_segment_loop(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 7, 255, 256, 257, 384, 1000, 4097):
            track = np.cumsum(rng.standard_normal(n))
            for segment_len in (2, 3, 64, 256):
                got, want = welch_psd(track, 64.0, segment_len), welch_loop(track, 64.0, segment_len)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestBandEnergy:
    def test_selects_rows(self):
        data = np.zeros((8, 3))
        data[2, :] = 1.0   # 0.50 Hz at df = 0.25
        data[6, :] = 2.0   # 1.50 Hz
        spec = make_spec(data)
        e = band_energy(spec, (0.4, 0.6))
        assert np.allclose(e, 1.0)
        e_all = band_energy(spec, (0.0, 2.0))
        assert np.allclose(e_all, 1.0 + 4.0)
