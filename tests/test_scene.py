"""Scene tests: motion profiles, rendering physics, determinism, file IO."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sra_reference
from nfsense.cli import demo_scene
from nfsense.geometry import Point2D, RadioConfig
from nfsense.scene import (_OU_BLOCK_U, _OU_TAU_S, MOTION_KINDS, CsiSeries, MotionProfile,
                           Scene, SceneUser, _ou_track, _reflection_track, displacement,
                           load_csi_csv, load_scene, render_components,
                           render_csi, save_csi_csv, save_scene)
from nfsense.traffic import KINDS, TrafficModel, generate_arrivals


def small_scene(noise_std=0.0, seed=0, motion=None):
    radio = RadioConfig.from_raw_gain(1.0, lambda_m=0.06, alpha=4.0, eta=1e-6, b=0.0)
    motion = motion or MotionProfile.respiration(15.0, 0.005)
    user = SceneUser(ue=Point2D(1.41, 0.15), subject=Point2D(1.41, 0.0), motion=motion)
    return Scene(ap=Point2D(0.0, 0.0), users=(user,), cfg=radio,
                 baseline_observer=Point2D(0.5, 0.0), noise_std=noise_std, seed=seed)


def ou_loop(cfg, d_ae, times, rng):
    """Per-sample OU recurrence: the oracle of scene._ou_track."""
    var = cfg.eta * cfg.lambda_m ** 2 * d_ae ** (-cfg.alpha)
    n = times.size
    out = np.empty(n, dtype=complex)
    if n == 0:
        return out
    sigma = math.sqrt(var / 2.0)
    draw = rng.standard_normal((n, 2))
    out[0] = sigma * (draw[0, 0] + 1j * draw[0, 1])
    for k in range(1, n):
        rho = math.exp(-(times[k] - times[k - 1]) / _OU_TAU_S)
        s = sigma * math.sqrt(max(1.0 - rho * rho, 0.0))
        out[k] = out[k - 1] * rho + s * (draw[k, 0] + 1j * draw[k, 1])
    return out


class TestMotionProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            MotionProfile(kind="jumping")
        with pytest.raises(ValueError):
            MotionProfile.respiration(rate_bpm=50.0)
        with pytest.raises(ValueError):
            MotionProfile.respiration(15.0, holds=[(5.0, 3.0)])
        with pytest.raises(ValueError):
            MotionProfile.respiration(15.0, holds=[(1.0, 5.0), (4.0, 8.0)])

    def test_still_is_zero(self):
        prof = MotionProfile.still()
        t = np.linspace(0, 100, 777)
        assert np.all(displacement(prof, t) == 0.0)

    def test_respiration_quarter_period(self):
        prof = MotionProfile.respiration(15.0, 0.005)
        assert displacement(prof, 1.0) == pytest.approx(0.005, rel=1e-12)

    def test_hold_freezes_at_entry_value(self):
        prof = MotionProfile.respiration(15.0, 0.005, holds=[(2.0, 4.0)])
        frozen = displacement(prof, np.array([2.0, 2.5, 3.0, 3.999]))
        entry = 0.005 * math.sin(2 * math.pi * 0.25 * 2.0)
        assert np.allclose(frozen, entry, atol=1e-15)
        # outside the hold the sinusoid resumes
        assert displacement(prof, 4.5) == pytest.approx(
            0.005 * math.sin(2 * math.pi * 0.25 * 4.5), rel=1e-12)

    def test_gesture_deterministic_per_seed(self):
        t = np.linspace(0, 5, 200)
        a = displacement(MotionProfile.gesture(seed=7), t)
        b = displacement(MotionProfile.gesture(seed=7), t)
        c = displacement(MotionProfile.gesture(seed=8), t)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bandlimited_rms_speed(self):
        prof = MotionProfile.activity(rms_speed=1.0, bandwidth_hz=15.0, seed=3)
        t = np.arange(0, 60.0, 1 / 256)
        disp = displacement(prof, t)
        vel = np.diff(disp) * 256
        assert np.sqrt(np.mean(vel ** 2)) == pytest.approx(1.0, rel=0.1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            displacement(MotionProfile.still(), -1.0)


class TestSceneValidation:
    def test_near_field_placement_enforced(self):
        radio = RadioConfig()
        user = SceneUser(ue=Point2D(2.0, 0.0), subject=Point2D(1.0, 0.0),
                         motion=MotionProfile.still())
        with pytest.raises(ValueError, match="near-field"):
            Scene(ap=Point2D(0, 0), users=(user,), cfg=radio)

    def test_coincident_positions_rejected(self):
        radio = RadioConfig()
        user = SceneUser(ue=Point2D(1.0, 0.0), subject=Point2D(1.0, 0.0),
                         motion=MotionProfile.still())
        with pytest.raises(ValueError, match="coincide"):
            Scene(ap=Point2D(0, 0), users=(user,), cfg=radio)

    def test_user_ids_assigned(self):
        scn = small_scene()
        assert scn.users[0].user_id == "ue0"


class TestRenderCsi:
    def test_still_subject_zero_noise_is_constant(self):
        scn = small_scene(motion=MotionProfile.still())
        # zero out the dynamic channel too
        radio = RadioConfig.from_raw_gain(1.0, lambda_m=0.06, alpha=4.0, eta=0.0, b=0.0)
        scn = Scene(ap=scn.ap, users=scn.users, cfg=radio,
                    baseline_observer=scn.baseline_observer, noise_std=0.0, seed=0)
        times = np.arange(0, 2.0, 1 / 64)
        series = render_csi(scn, "ue0", times)
        assert np.max(np.abs(series.values - series.values[0])) < 1e-18

    def test_respiration_peak_at_rate(self):
        scn = small_scene()
        times = np.arange(0, 60.0, 1 / 64)
        series = render_csi(scn, "ue0", times)
        phase = series.phase()
        spec = np.abs(np.fft.rfft((phase - phase.mean()) * np.hanning(len(phase))))
        freqs = np.fft.rfftfreq(len(phase), 1 / 64)
        band = (freqs > 0.05) & (freqs < 2.0)
        peak = freqs[band][np.argmax(spec[band])]
        assert peak == pytest.approx(15.0 / 60.0, abs=freqs[1])

    def test_superposition_is_exact(self):
        scn = small_scene(noise_std=1e-5, seed=3)
        times = np.arange(0, 1.0, 1 / 64)
        parts = render_components(scn, "ue0", times)
        total = sum(parts.values())
        series = render_csi(scn, "ue0", times)
        assert np.array_equal(total, series.values)
        assert set(parts) == {"reflection:ue0", "static", "dynamic", "noise"}

    def test_determinism(self):
        scn = small_scene(noise_std=1e-4, seed=11)
        times = np.arange(0, 2.0, 1 / 64)
        a = render_csi(scn, "ue0", times)
        b = render_csi(scn, "ue0", times)
        assert np.array_equal(a.values, b.values)

    def test_unknown_link_rejected(self):
        scn = small_scene()
        with pytest.raises(KeyError):
            render_csi(scn, "nope", np.arange(10) / 64)

    def test_near_field_domination_ratio_matches_vir(self):
        # two-user scene: empirical variance ratio of per-subject
        # contributions at UE0 tracks the geometric VIR prediction.  The
        # formula's intensity assumes both path legs change at rate v, so
        # each subject's physical RMS speed is projected onto the actual
        # path-length gradient (total rate = 2 v_effective).
        from nfsense.geometry import Mover, vir
        radio = RadioConfig.from_raw_gain(1.0, lambda_m=0.06, alpha=4.0, eta=0.0, b=0.0)
        u0 = SceneUser(ue=Point2D(1.41, 0.15), subject=Point2D(1.41, 0.0),
                       motion=MotionProfile.respiration(15.0, 0.005))
        u1 = SceneUser(ue=Point2D(-1.41, -0.15), subject=Point2D(-1.41, 0.0),
                       motion=MotionProfile.respiration(20.0, 0.005))
        scn = Scene(ap=Point2D(0, 0), users=(u0, u1), cfg=radio,
                    noise_std=0.0, seed=5)
        times = np.arange(0, 120.0, 1 / 64)
        parts = render_components(scn, "ue0", times)
        var_ratio = (np.var(np.diff(parts["reflection:ue0"]))
                     / np.var(np.diff(parts["reflection:ue1"])))

        def path_gradient(user):
            # |d(d_as + d_se)/d displacement| toward this link's receiver
            axis = (user.ue.as_array() - user.subject.as_array())
            axis /= np.linalg.norm(axis)
            eps = 1e-6
            p0 = user.subject.as_array()
            p1 = p0 + eps * axis
            rx = u0.ue.as_array()
            ap = scn.ap.as_array()
            d0 = np.linalg.norm(p0 - ap) + np.linalg.norm(p0 - rx)
            d1 = np.linalg.norm(p1 - ap) + np.linalg.norm(p1 - rx)
            return abs(d1 - d0) / eps

        def eff_intensity(user):
            rms_speed = user.motion.amplitude_m * 2 * math.pi \
                * user.motion.rate_bpm / 60.0 / math.sqrt(2)
            return 0.5 * path_gradient(user) * rms_speed

        predicted = vir(radio, scn.ap, u0.ue,
                        Mover(u0.subject, eff_intensity(u0)),
                        [Mover(u1.subject, eff_intensity(u1))])
        assert abs(10 * math.log10(var_ratio / predicted)) < 3.0

    def test_baseline_senses_all_subjects(self):
        rates = (12.0, 18.0)
        radio = RadioConfig.from_raw_gain(1.0, lambda_m=0.06, alpha=4.0, eta=0.0, b=0.0)
        users = (
            SceneUser(ue=Point2D(1.41, 0.15), subject=Point2D(1.41, 0.0),
                      motion=MotionProfile.respiration(rates[0], 0.005)),
            SceneUser(ue=Point2D(0.15, 1.41), subject=Point2D(0.0, 1.41),
                      motion=MotionProfile.respiration(rates[1], 0.005)),
        )
        scn = Scene(ap=Point2D(0, 0), users=users, cfg=radio,
                    baseline_observer=Point2D(0.6, 0.6), noise_std=0.0, seed=2)
        times = np.arange(0, 90.0, 1 / 64)
        series = render_csi(scn, "baseline", times)
        phase = series.phase()
        spec = np.abs(np.fft.rfft((phase - phase.mean()) * np.hanning(len(phase))))
        freqs = np.fft.rfftfreq(len(phase), 1 / 64)
        for rate in rates:
            f = rate / 60.0
            nearby = (freqs > f - 0.03) & (freqs < f + 0.03)
            far = (freqs > 1.2)
            assert spec[nearby].max() > 5.0 * spec[far].mean()

    def test_missing_observer_rejected(self):
        radio = RadioConfig.from_raw_gain(1.0)
        user = SceneUser(ue=Point2D(1.41, 0.15), subject=Point2D(1.41, 0.0),
                         motion=MotionProfile.still())
        scn = Scene(ap=Point2D(0, 0), users=(user,), cfg=radio)
        with pytest.raises(ValueError, match="observer"):
            render_csi(scn, "baseline", np.arange(5) / 64)


def ou_longdouble(cfg, d_ae, times, rng):
    """The OU recurrence of ou_loop in np.longdouble, on the same draws: (n, 2) re, im."""
    ld = np.longdouble
    sigma = np.sqrt(ld(cfg.eta) * ld(cfg.lambda_m) ** 2 * ld(d_ae) ** -ld(cfg.alpha) / 2)
    draw = rng.standard_normal((times.size, 2)).astype(ld)
    gap = np.diff(times.astype(ld)) / ld(_OU_TAU_S)
    rho, s = np.exp(-gap), sigma * np.sqrt(-np.expm1(-2 * gap))
    out = np.empty((times.size, 2), dtype=ld)
    x = sigma * draw[0]
    out[0] = x
    for k in range(1, times.size):
        x = x * rho[k - 1] + s[k - 1] * draw[k]
        out[k] = x
    return out


LONG_DOUBLE_IS_DOUBLE = np.finfo(np.longdouble).eps == np.finfo(float).eps


class TestOuTrackMatchesLoop:
    """scene._ou_track against the per-sample recurrence.

    The prefix sum rounds differently from ou_loop, so beyond 0 and 1 samples
    both are held to the recurrence run in np.longdouble on the same draws.
    """

    CFG = small_scene().cfg
    # max |x - exact| / max |exact|.  On seeds 10-29 (30 s, all three traffic
    # kinds), seed 11 (120 s) and seeds 10-19 of log-uniform gaps, none used
    # below, the prefix sum measured at most 1.3e-14 (ou_loop: 6.6e-14) and at
    # most 1.14 times ou_loop's own error.
    REL_BOUND = 3e-14
    LOOP_MULTIPLE = 2.0

    def check(self, times, seed=0, d_ae=1.42):
        times = np.asarray(times, dtype=float)
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _ou_track(self.CFG, d_ae, times, rng)
        want = ou_loop(self.CFG, d_ae, times, loop_rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert rng.bit_generator.state == loop_rng.bit_generator.state
        if times.size <= 1:
            assert got.tobytes() == want.tobytes()
            return
        if LONG_DOUBLE_IS_DOUBLE:
            pytest.skip("np.longdouble is plain double here: no reference to measure against")
        exact = ou_longdouble(self.CFG, d_ae, times, np.random.default_rng(seed))

        def rel_error(x):
            pairs = np.stack([x.real, x.imag], axis=1).astype(np.longdouble)
            return float(np.max(np.abs(pairs - exact)) / np.max(np.abs(exact)))

        err, loop_err = rel_error(got), rel_error(want)
        print(f"n={times.size}: prefix sum {err:.2e}, loop {loop_err:.2e}")
        assert err <= self.REL_BOUND
        assert err <= self.LOOP_MULTIPLE * max(loop_err, np.finfo(float).eps)

    def test_empty_and_single_sample(self):
        self.check([])
        self.check([0.0])
        self.check([3.7], seed=2)

    def test_uniform_64hz(self):
        self.check(np.arange(64 * 30) / 64.0, seed=1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bursty_arrival_grids(self, kind):
        for seed in range(3):
            times = generate_arrivals(TrafficModel(kind=kind, seed=seed, contention_users=4),
                                      30.0).times
            self.check(times, seed=seed, d_ae=0.5 + seed)

    def test_seeded_gaps_from_tiny_to_long(self):
        # rho near 1 (microsecond gaps) and near 0 (gaps of many tau)
        rng = np.random.default_rng(7)
        gaps = np.exp(rng.uniform(np.log(1e-7), np.log(20.0), 4000))
        self.check(np.cumsum(gaps), seed=7)

    def test_block_boundaries(self):
        span = _OU_BLOCK_U * _OU_TAU_S
        # a 10 Hz grid over three blocks, and a 1 kHz burst across the first boundary
        self.check(np.arange(10 * 400 + 1) / 10.0, seed=3)
        self.check(np.concatenate([[0.0], span - 0.5 + np.arange(1000) / 1000.0]), seed=4)

    def test_gap_longer_than_a_block(self):
        burst = np.arange(640) / 64.0
        self.check(np.concatenate([burst, burst + 10.0 + 1.5 * _OU_BLOCK_U * _OU_TAU_S]), seed=5)

    def test_rho_underflows_to_zero(self):
        assert math.exp(-400.0 / _OU_TAU_S) == 0.0
        burst = np.arange(64) / 64.0
        self.check(np.concatenate([burst, burst + 400.0, burst + 800.0]), seed=6)


class TestCsiSeries:
    def test_increasing_timestamps_enforced(self):
        with pytest.raises(ValueError):
            CsiSeries(timestamps=np.array([0.0, 0.0]),
                      values=np.array([1 + 0j, 2 + 0j]))

    def test_csv_round_trip(self, tmp_path):
        scn = small_scene(noise_std=1e-5, seed=4)
        series = render_csi(scn, "ue0", np.arange(0, 0.5, 1 / 64))
        path = tmp_path / "csi.csv"
        save_csi_csv(series, path)
        loaded = load_csi_csv(path)
        assert np.allclose(loaded.timestamps, series.timestamps, atol=1e-9)
        assert np.allclose(loaded.values, series.values, rtol=1e-9)

    GOOD = ["t_s,re,im", "0.000000000,1.0e-05,2.0e-05", "0.015625000,1.1e-05,2.1e-05",
            "0.031250000,1.2e-05,2.2e-05"]

    @pytest.mark.parametrize("line, text, match", [
        (2, "0.015625000,1.1e-05", "t_s,re,im"),            # short row
        (2, "0.015625000,1.1e-05,2.1e-05,0", "t_s,re,im"),  # long row
        (2, "0.015625000,abc,2.1e-05", "abc"),
        (2, "0.015625000,,2.1e-05", "t_s,re,im"),           # empty cell
        (3, "nan,1.2e-05,2.2e-05", "non-finite"),
        (1, "0.000000000,inf,2.0e-05", "non-finite"),
        (3, "0.031250000,1.2e-05,-nan", "non-finite"),
        (3, "0.015625000,1.2e-05,2.2e-05", "strictly increasing"),  # repeated time
        (3, "0.010000000,1.2e-05,2.2e-05", "strictly increasing"),
        (0, "0.000000000,9.0e-05,9.0e-05", "header"),       # no header: not a lost sample
        (0, "t,re,im", "header"),
        (0, "", "header"),
    ])
    def test_malformed_file_named(self, tmp_path, line, text, match):
        lines = list(self.GOOD)
        lines[line] = text
        path = tmp_path / "bad_csi.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=match) as exc:
            load_csi_csv(path)
        assert str(path) in str(exc.value)

    def test_every_column_count_named(self, tmp_path):
        path = tmp_path / "two_cols.csv"
        path.write_text("t_s,re,im\n0.0,1.0\n0.5,2.0\n")
        with pytest.raises(ValueError, match="got 2") as exc:
            load_csi_csv(path)
        assert str(path) in str(exc.value)

    def test_well_formed_file_loads(self, tmp_path):
        path = tmp_path / "csi.csv"
        path.write_text("\n".join(self.GOOD) + "\n")
        series = load_csi_csv(path)
        assert series.timestamps.tolist() == [0.0, 0.015625, 0.03125]
        assert series.values[1] == complex(1.1e-05, 2.1e-05)

    def test_empty_file_named(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header t_s,re,im") as exc:
            load_csi_csv(path)
        assert str(path) in str(exc.value)


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        scn = small_scene(noise_std=3e-5, seed=9,
                          motion=MotionProfile.respiration(12.0, 0.004, [(5.0, 8.0)]))
        path = tmp_path / "scene.txt"
        save_scene(scn, path)
        loaded = load_scene(path)
        assert loaded.seed == scn.seed
        assert loaded.noise_std == pytest.approx(scn.noise_std)
        assert loaded.users[0].motion.holds == ((5.0, 8.0),)
        assert loaded.users[0].motion.rate_bpm == pytest.approx(12.0)
        assert loaded.baseline_observer.x == pytest.approx(0.5)
        times = np.arange(0, 1.0, 1 / 64)
        a = render_csi(scn, "ue0", times)
        b = render_csi(loaded, "ue0", times)
        assert np.allclose(a.values, b.values, rtol=1e-9)

    def test_gesture_and_activity_bytes_round_trip(self, tmp_path):
        users = tuple(SceneUser(ue=Point2D(x, 0.15), subject=Point2D(x, 0.0), motion=motion)
                      for x, motion in ((1.41, MotionProfile.gesture(seed=7)),
                                        (-1.41, MotionProfile.activity(seed=3))))
        path = tmp_path / "scene.txt"
        save_scene(Scene(ap=Point2D(0.0, 0.0), users=users, cfg=RadioConfig()), path)
        first = path.read_text()
        assert "user.0.motion.kind=gesture\n" in first
        assert "user.1.motion.kind=activity\n" in first
        save_scene(load_scene(path), path)
        assert path.read_text() == first

    @pytest.mark.parametrize("old", ["gesture_like", "activity_like"])
    def test_old_motion_spelling_rejected(self, tmp_path, old):
        path = tmp_path / "scene.txt"
        save_scene(small_scene(motion=MotionProfile.gesture()), path)
        path.write_text(path.read_text().replace("kind=gesture", f"kind={old}"))
        with pytest.raises(ValueError, match=f"got '{old}'") as exc:
            load_scene(path)
        assert str(path) in str(exc.value)

    def test_rejected_value_names_its_user(self, tmp_path):
        users = tuple(SceneUser(ue=Point2D(x, 0.15), subject=Point2D(x, 0.0),
                                motion=MotionProfile.gesture(seed=i))
                      for i, x in enumerate((1.41, -1.41)))
        path = tmp_path / "scene.txt"
        save_scene(Scene(ap=Point2D(0.0, 0.0), users=users, cfg=RadioConfig()), path)
        path.write_text(path.read_text().replace("user.1.motion.kind=gesture",
                                                 "user.1.motion.kind=gesture_like"))
        with pytest.raises(ValueError) as exc:
            load_scene(path)
        assert str(exc.value).startswith(
            f"{path}: bad config user.1.motion: kind must be one of {MOTION_KINDS}")

    def test_holds_keep_full_precision(self, tmp_path):
        # Holds are written at .9g like every other float, not .6g.
        motion = MotionProfile.respiration(12.0, 0.004, [(5.12345678, 8.0)])
        path = tmp_path / "scene.txt"
        save_scene(small_scene(motion=motion), path)
        assert load_scene(path).users[0].motion.holds == ((5.12345678, 8.0),)

    @pytest.mark.parametrize("key, value", [
        ("noise_std", "nan"),
        ("user.0.motion.amplitude_m", "inf"),
        ("radio.eta", "-inf"),
        ("user.0.motion.holds", "5:nan"),
        ("user.0.motion.seed", "1.5"),
        ("ap.x", None),                     # None: the line is deleted
        ("user.0.ue.y", None),
        ("baseline.y", None),
        ("radio.alpah", "3"),               # unknown key
    ])
    def test_bad_scene_names_file_and_key(self, tmp_path, key, value):
        path = tmp_path / "scene.txt"
        save_scene(small_scene(), path)
        kv = dict(line.split("=", 1) for line in path.read_text().splitlines())
        if value is None:
            del kv[key]
        else:
            kv[key] = value
        path.write_text("".join(f"{k}={v}\n" for k, v in kv.items()))
        with pytest.raises(ValueError, match=re.escape(key)) as exc:
            load_scene(path)
        assert str(path) in str(exc.value)

    def test_repeated_key_named(self, tmp_path):
        path = tmp_path / "scene.txt"
        save_scene(small_scene(), path)
        lines = path.read_text().splitlines()
        first = lines.index(next(line for line in lines if line.startswith("user.0.ue.x=")))
        path.write_text(path.read_text() + "user.0.ue.x=0.5\n")
        with pytest.raises(ValueError, match=re.escape(
                f"'user.0.ue.x' repeated on lines {first + 1} and {len(lines) + 1}")) as exc:
            load_scene(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("line", ["user.0.ue.x 1.41", "=0.5"])
    def test_malformed_line_named(self, tmp_path, line):
        path = tmp_path / "scene.txt"
        save_scene(small_scene(), path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError, match="malformed line") as exc:
            load_scene(path)
        assert str(path) in str(exc.value)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_random_scene_bytes_round_trip(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("scene") / "scene.txt"
        save_scene(data.draw(scenes()), path)
        first = path.read_text()
        save_scene(load_scene(path), path)
        assert path.read_text() == first


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenes(draw):
    """Valid random scenes whose margins survive rounding to 9 digits."""
    users = []
    for i in range(draw(st.integers(0, 3))):
        # Each user keeps to its own cell, so no two positions coincide.
        ue = Point2D(2.0 * (i + 1) + draw(_finite(-0.5, 0.5)), draw(_finite(-0.5, 0.5)))
        r, theta = draw(_finite(0.01, 0.29)), draw(_finite(0.0, 2.0 * math.pi))
        subject = Point2D(ue.x + r * math.cos(theta), ue.y + r * math.sin(theta))
        holds, t = [], draw(_finite(0.0, 100.0))
        for _ in range(draw(st.integers(0, 3))):
            start = t + draw(_finite(0.0, 10.0))
            t = start + draw(_finite(0.5, 10.0))
            holds.append((start, t))
        motion = MotionProfile(kind=draw(st.sampled_from(MOTION_KINDS)),
                               rate_bpm=draw(_finite(6.0, 40.0)),
                               amplitude_m=draw(_finite(0.0, 0.01)), holds=tuple(holds),
                               rms_speed=draw(_finite(0.0, 2.0)),
                               bandwidth_hz=draw(_finite(0.1, 20.0)),
                               seed=draw(st.integers(0, 2 ** 32)))
        user_id = draw(st.sampled_from(["", f"u{i}", f"u{i}ab"]))
        users.append(SceneUser(ue=ue, subject=subject, motion=motion, user_id=user_id))
    radio = RadioConfig(lambda_m=draw(_finite(0.01, 0.2)), alpha=draw(_finite(2.0, 4.0)),
                        eta=draw(_finite(0.0, 1.0)), b=draw(_finite(0.0, 1.0)),
                        g_tilde=draw(_finite(1e-9, 1.0)))
    baseline = draw(st.none() | st.builds(Point2D, _finite(-0.5, 0.5), _finite(4.5, 5.5)))
    return Scene(ap=Point2D(draw(_finite(-1.5, -0.5)), draw(_finite(-0.5, 0.5))),
                 users=tuple(users), cfg=radio, baseline_observer=baseline,
                 noise_std=draw(_finite(0.0, 1.0)), seed=draw(st.integers(0, 2 ** 32)))


class TestReflectionTrackMatchesNorm:
    @given(scene=scenes(), shift=_finite(-1e3, 1e3),
           times=st.lists(_finite(0.0, 1e4), max_size=40).map(np.unique))
    @settings(max_examples=60, deadline=None)
    def test_drawn_scenes(self, scene, shift, times):
        # shifting every position keeps the scene valid and moves off small coordinates
        def moved(p):
            return Point2D(p.x + shift, p.y - shift)
        users = tuple(SceneUser(ue=moved(u.ue), subject=moved(u.subject), motion=u.motion)
                      for u in scene.users)
        scene = Scene(ap=moved(scene.ap), users=users, cfg=scene.cfg)
        for rx in (scene.ap, *(u.ue for u in users)):
            for user in users:
                got = _reflection_track(scene, user, rx, times)
                want = sra_reference._reflection_track(scene, user, rx, times)
                assert got.tobytes() == want.tobytes()

    def test_demo_links(self):
        scene = demo_scene(1)
        times = np.arange(64 * 30) / 64.0
        for rx in (u.ue for u in scene.users):
            for user in scene.users:
                got = _reflection_track(scene, user, rx, times)
                assert got.tobytes() == sra_reference._reflection_track(
                    scene, user, rx, times).tobytes()
