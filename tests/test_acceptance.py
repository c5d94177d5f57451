"""Acceptance suite: one test (or test group) per criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they complete; this file takes about 19 s on a 2-core machine,
about 15 s of it in building and training criterion 4's models.

Two sub-assertions are expected failures (strict xfail): the paper's own
formulas place the minimum-spacing curve slightly outside the spec'd band at
the right edge of its range, and the paper's radial fit coefficients exceed
the stated error budget at exactly N = 10.  The numbers are printed so the
conflict is visible; everything else must pass at the stated tolerances.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

import capacity_reference
import nfsense.capacity as cap
import nfsense.metrics as met
import nfsense.scene as scn_mod
import nfsense.sra as sra
import nfsense.tcn as tcn
import nfsense.traffic as traffic
from nfsense.cli import demo_scene, main
from nfsense.geometry import Point2D, RadioConfig
from nfsense.bfi import (ChannelMatrix, MotionUpdate, apply_motion,
                         bfi_sensitivity_demo, predicted_v_change,
                         reconstructed_v)
from test_traffic import burstiness_index

LAM = 0.06


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def paper_query(r, beta=50.0, delta_r=0.1, k=2):
    return cap.CapacityQuery(r=r, delta_r=delta_r, beta=beta,
                             cfg=RadioConfig(), K=k)


# ---------------------------------------------------------------------------
# criterion 1: capacity bounds

class TestCriterion1CapacityBounds:
    def test_n_max_peak_and_band(self):
        t0 = time.time()
        rs = [round(0.30 + 0.01 * i, 2) for i in range(371)]
        values = {r: cap.n_max(paper_query(r)) for r in rs}
        peak = max(values.values())
        band = [r for r, v in values.items() if v == peak]
        elapsed = time.time() - t0
        ok = (peak == 51
              and abs(min(band) - 2.94) <= 0.05
              and abs(max(band) - 3.35) <= 0.05
              and elapsed < 5.0)
        report("1a n_max", ok,
               f"peak {peak} over r in [{min(band):.2f}, {max(band):.2f}] m "
               f"(paper: 51 over [2.94, 3.35]); sweep {elapsed:.2f} s")
        assert peak == 51
        assert abs(min(band) - 2.94) <= 0.05
        assert abs(max(band) - 3.35) <= 0.05
        assert elapsed < 5.0

    @pytest.mark.xfail(strict=True, reason=(
        "spec-physics conflict: the paper's own Eq. for the minimum spacing "
        "yields 0.402 m at r = 3.30 (band demands <= 0.39); the curve sits "
        "inside 0.34 +/- 0.05 only for r <= ~3.23.  See 'Expected failures' in "
        "the README."))
    def test_dd_min_flat_band_strict(self):
        rs = np.arange(0.32, 3.30 + 1e-9, 0.01)
        dd = np.array([cap.delta_d_min(paper_query(float(r))) for r in rs])
        lo, hi, med = np.nanmin(dd), np.nanmax(dd), np.nanmedian(dd)
        inside = (dd >= 0.29) & (dd <= 0.39)
        report("1b dd_min flat band (strict)", bool(inside.all()),
               f"range [{lo:.4f}, {hi:.4f}] m, median {med:.4f} "
               f"(paper: 'around 0.34'); {int((~inside).sum())} of {len(rs)} "
               f"grid points outside 0.34±0.05")
        assert inside.all()

    def test_dd_min_flat_band_representative_value(self):
        # the paper's quoted 0.34 m is the representative level of the curve
        rs = np.arange(0.32, 3.30 + 1e-9, 0.01)
        dd = np.array([cap.delta_d_min(paper_query(float(r))) for r in rs])
        med = float(np.nanmedian(dd))
        ok = abs(med - 0.34) <= 0.05 and not np.isnan(dd).any()
        report("1b' dd_min representative", ok,
               f"median {med:.4f} m vs paper 0.34±0.05")
        assert ok

    def test_dd_min_steep_rise(self):
        # The steep section lives within one 0.01 step of the feasibility
        # boundary (r_max ~ 3.7605, printed as 3.76 in the paper), so the
        # existential is checked on a refined grid with the criterion's
        # ±0.05 m band tolerance applied to the interval end.
        rs = np.arange(3.30, 3.76 + 0.05, 1e-4)
        dd = np.array([cap.delta_d_min(paper_query(float(r))) for r in rs])
        peak = float(np.nanmax(dd))
        r_at = float(rs[np.nanargmax(dd)])
        ok = peak > 3.0
        report("1c dd_min steep rise", ok,
               f"max {peak:.3f} m at r = {r_at:.4f} (paper: 'increases "
               f"steeply to 3.49 m' toward r = 3.76)")
        assert ok
        assert peak == pytest.approx(3.49, abs=0.15)


# ---------------------------------------------------------------------------
# criterion 2: series-fit fidelity

class TestCriterion2SeriesFit:
    @pytest.mark.xfail(strict=True, reason=(
        "spec-physics conflict: the paper's radial coefficients give 7.6% "
        "error at N = 10 (5% required); all N >= 11 are within 5%.  See "
        "'Expected failures' in the README."))
    def test_radial_fit_strict(self):
        t0 = time.time()
        errs = {}
        for n in range(10, 61):
            exact = cap.radial_series(n, 4.0)
            errs[n] = abs(capacity_reference.radial_fit(n) - exact) / exact
        worst_n = max(errs, key=errs.get)
        ok = max(errs.values()) < 0.05
        report("2a radial fit (strict)", ok,
               f"worst {errs[worst_n]*100:.2f}% at N={worst_n}; "
               f"N=11 gives {errs[11]*100:.2f}%; runtime {time.time()-t0:.2f} s")
        assert ok

    def test_radial_fit_from_eleven(self):
        for n in range(11, 61):
            exact = cap.radial_series(n, 4.0)
            assert abs(capacity_reference.radial_fit(n) - exact) / exact < 0.05
        report("2a' radial fit N in [11,60]", True, "all within 5%")

    def test_mirror_fit(self):
        t0 = time.time()
        worst = 0.0
        for phi in np.linspace(math.pi / 180, math.pi / 5, 400):
            exact = cap.mirror_series(2, float(phi), 4.0)
            worst = max(worst, abs(capacity_reference.mirror_fit(float(phi)) - exact) / exact)
        elapsed = time.time() - t0
        ok = worst < 0.10 and elapsed < 1.0
        report("2b mirror fit", ok,
               f"worst {worst*100:.2f}% on the stated domain; {elapsed:.2f} s")
        assert ok


# ---------------------------------------------------------------------------
# criterion 3: gradient correctness

class TestCriterion3Gradients:
    def test_gradcheck_per_layer_type(self):
        t0 = time.time()
        cfg = tcn.TcnConfig(n_f=6, n_c=10, kernel_len=3, dilations=(1, 2),
                            bottleneck_dim=4, seed=2)
        model = tcn.TcnModel.initialize(cfg)
        rng = np.random.default_rng(33)
        batch = [(rng.standard_normal((6, 14)), rng.standard_normal((6, 14))),
                 (rng.standard_normal((6, 9)), rng.standard_normal((6, 9)))]
        _, grads = tcn.loss_and_gradients(model, batch)

        layer_type = {}
        for name in model.params:
            if ".conv" in name:
                kind = "dilated_conv"
            elif name.startswith("enc"):
                kind = "bottleneck_enc"
            elif name.startswith("dec"):
                kind = "bottleneck_dec"
            elif ".proj" in name:
                kind = "residual_proj"
            else:
                kind = "output_proj"
            layer_type.setdefault(kind, []).append(name)

        h = 1e-4

        def fd(name, idx, step):
            p = model.params[name]
            orig = p[idx]
            p[idx] = orig + step
            up, _ = tcn.loss_and_gradients(model, batch)
            p[idx] = orig - step
            dn, _ = tcn.loss_and_gradients(model, batch)
            p[idx] = orig
            return (up - dn) / (2 * step)

        worst_by_type = {}
        for kind, names in layer_type.items():
            checked = 0
            worst = 0.0
            attempt = 0
            while checked < 50 and attempt < 400:
                attempt += 1
                name = names[int(rng.integers(len(names)))]
                p = model.params[name]
                idx = np.unravel_index(int(rng.integers(p.size)), p.shape)
                f1 = fd(name, idx, h)
                f2 = fd(name, idx, h / 4)
                # an estimate must itself be h-stable to well below the
                # 1e-4 budget to adjudicate it (kinks and curvature
                # corrupt the quotient, not the analytic gradient)
                if abs(f1 - f2) > 2e-5 * (abs(f1) + abs(f2)) + 1e-13:
                    continue
                rel = abs(grads[name][idx] - f1) / (abs(grads[name][idx]) + 1e-8)
                worst = max(worst, rel)
                checked += 1
            assert checked >= 50, f"could not sample 50 smooth coords for {kind}"
            worst_by_type[kind] = worst
        elapsed = time.time() - t0
        ok = max(worst_by_type.values()) < 1e-4 and elapsed < 30.0
        report("3 gradient correctness", ok,
               "; ".join(f"{k} {v:.2e}" for k, v in sorted(worst_by_type.items()))
               + f"; {elapsed:.1f} s")
        assert max(worst_by_type.values()) < 1e-4
        assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 4: learned recovery beats interpolation, on scenes never trained on

RECOVERY_SEEDS = (1, 2, 3)      # TCN init and shuffling seeds
RECOVERY_EPOCHS = 60


def hidden_columns(x):
    """The columns an input hides: every row holds the sentinel there."""
    return np.all(x == sra.NO_DATA_SENTINEL, axis=0)


def interpolate_hidden(x):
    """The baseline: each row's hidden columns filled by np.interp across the
    shown ones, so held flat before the first and after the last shown one."""
    hidden = hidden_columns(x)
    cols = np.arange(x.shape[1])
    out = x.copy()
    for row, values in zip(out, x):
        row[hidden] = np.interp(cols[hidden], cols[~hidden], values[~hidden])
    return out


def masked_mse(pairs, recover):
    """Mean over pairs of the MSE between recover(input), clipped to [0, 1], and
    the label on the input's hidden columns.  A pair that hides no column has
    nothing to recover and is left out; with no such pair at all it is nan."""
    per_pair = []
    for x, y in pairs:
        hidden = hidden_columns(x)
        if hidden.any():
            out = np.clip(recover(x), 0.0, 1.0)
            per_pair.append(float(np.mean((out[:, hidden] - y[:, hidden]) ** 2)))
    return float(np.mean(per_pair)) if per_pair else math.nan


def dense_scene_dataset(seed, duration=240.0):
    """Demo scene ``seed``'s four links rendered at 64 Hz, cut into 128-frame
    labels every 96 frames, each with three masked copies (the CLI defaults)."""
    scene = demo_scene(seed=seed)
    times = np.arange(int(duration * 64) + 1) / 64.0
    cfg = sra.SraConfig()
    labels = [label for user in scene.users
              for label in sra.extract_label_slices(sra.process_series(
                  scn_mod.render_csi(scene, user.user_id, times), cfg, duration), cfg)]
    return sra.build_dataset(sra.chop_labels(labels, 128, 96), 3, 0.3, 8.0, 0.7, seed=1)


@pytest.fixture(scope="session")
def recovery():
    """Scene 1's dataset, a default float32 TCN trained on its train split per
    seed, and the test sets: scene 1's test split and every pair of the
    held-out scenes 2 and 3.  Built once for every test that reads them."""
    t0 = time.time()
    scenes = {seed: dense_scene_dataset(seed) for seed in (1, 2, 3)}
    train_set = scenes[1].train
    models = {}
    for seed in RECOVERY_SEEDS:
        model = tcn.TcnModel.initialize(tcn.TcnConfig(seed=seed), dtype=np.float32)
        models[seed], _ = tcn.train(model, train_set,
                                    tcfg=tcn.TrainConfig(epochs=RECOVERY_EPOCHS, seed=seed))
    return {"train": train_set,
            "tests": {"scene 1 test split": scenes[1].test,
                      "scene 2": scenes[2].train + scenes[2].test,
                      "scene 3": scenes[3].train + scenes[3].test},
            "models": models,
            "build_s": time.time() - t0}


class TestCriterion4LearnedRecovery:
    def test_tcn_beats_interpolation_on_every_seed(self, recovery):
        tests = recovery["tests"]
        interp = {name: masked_mse(pairs, interpolate_hidden) for name, pairs in tests.items()}
        tcn_mse = {(seed, name): masked_mse(pairs, lambda x: tcn.forward(model, x))
                   for seed, model in recovery["models"].items()
                   for name, pairs in tests.items()}
        ok = all(mse < interp[name] for (_, name), mse in tcn_mse.items())
        report("4 learned recovery beats interpolation", ok,
               f"{len(recovery['train'])} train pairs, {RECOVERY_EPOCHS} epochs; masked MSE "
               + "; ".join(f"{name} ({len(tests[name])} pairs): interpolation {interp[name]:.5f}, "
                           + ", ".join(f"seed {seed} {tcn_mse[seed, name]:.5f}"
                                       for seed in recovery["models"])
                           for name in tests)
               + f"; data and training {recovery['build_s']:.1f} s")
        assert ok


class TestCriterion4Scorer:
    def test_linear_row_across_a_hole_scores_zero_for_interpolation(self):
        # dyadic values on a line: np.interp reproduces them exactly
        label = (np.arange(4)[:, None] + np.arange(16)[None, :]) / 256.0
        hidden = np.zeros(16, bool)
        hidden[5:9] = hidden[11] = True
        x = np.where(hidden, sra.NO_DATA_SENTINEL, label)
        assert np.array_equal(hidden_columns(x), hidden)
        assert masked_mse([(x, label)], interpolate_hidden) == 0.0

    def test_output_clipped_to_unit_range_before_scoring(self):
        label = np.array([[1.0, 0.5, 0.0, 0.5]])
        x = np.array([[sra.NO_DATA_SENTINEL] * 3 + [0.5]])
        # 3 and -2 clip onto the label; 7 clips to 1, 0.5 off
        out = np.array([[3.0, 7.0, -2.0, 99.0]])
        assert masked_mse([(x, label)], lambda _: out) == pytest.approx(0.25 / 3)

    def test_pair_hiding_no_column_is_left_out(self):
        label = np.full((2, 6), 0.5)
        hiding = np.where(np.arange(6) == 2, sra.NO_DATA_SENTINEL, label)
        recover = lambda x: np.zeros_like(x)       # 0.25 off on every column
        assert masked_mse([(hiding, label), (label, label)], recover) == 0.25
        assert math.isnan(masked_mse([(label, label)], recover))


# ---------------------------------------------------------------------------
# criterion 7: BFI direction-only theorem

class TestCriterion7BfiTheorem:
    def test_radial_and_angular_sweeps(self):
        t0 = time.time()
        rng = np.random.default_rng(77)
        worst_bfi = 0.0
        worst_closed_form = 0.0
        for trial in range(100):
            n_rx, n_tx = 2, 3
            while True:
                h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
                s = np.linalg.svd(h, compute_uv=False)
                if np.min(np.abs(np.diff(s))) > 1e-3:
                    break
            h0 = ChannelMatrix(h)
            sweep = [MotionUpdate(delta_theta=0.0, delta_d_t=float(s_),
                                  delta_d_r=(float(s_),) * n_rx, rho=(1.0,) * n_rx)
                     for s_ in np.linspace(0.0, 2 * LAM, 9)]
            rows = bfi_sensitivity_demo(h0, sweep, LAM)
            csi_span = max(r[0] for r in rows)
            worst_bfi = max(worst_bfi, max(r[1] for r in rows))
            assert csi_span == pytest.approx(8 * math.pi, rel=1e-9)

            m = MotionUpdate(delta_theta=float(rng.uniform(0.005, 0.05)),
                             delta_d_t=0.0, delta_d_r=(0.0,) * n_rx,
                             rho=(1.0,) * n_rx, ell=LAM / 2,
                             theta=float(rng.uniform(0.3, 1.2)))
            v0 = reconstructed_v(h0)
            v1 = reconstructed_v(apply_motion(h0, m, LAM))
            predicted = predicted_v_change(n_tx, m, LAM)[:, None] * v0.v
            worst_closed_form = max(worst_closed_form,
                                    float(np.max(np.abs(v1.v - predicted))))
        elapsed = time.time() - t0
        ok = worst_bfi < 1e-6 and worst_closed_form < 1e-6 and elapsed < 10.0
        report("7 BFI direction-only theorem", ok,
               f"max BFI change under radial motion {worst_bfi:.2e}; "
               f"closed-form residual {worst_closed_form:.2e}; "
               f"CSI spans 8 pi; {elapsed:.1f} s")
        assert worst_bfi < 1e-6
        assert worst_closed_form < 1e-6
        assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 8: traffic realism

class TestCriterion8Traffic:
    def test_bfi_cap_and_burstiness(self):
        worst_window = 0
        for seed in range(20):
            model = traffic.TrafficModel(kind="ul_bfi", rate_in_burst_hz=1000.0,
                                         mean_burst_s=1.0, mean_gap_s=0.2,
                                         seed=seed)
            st = traffic.generate_arrivals(model, 60.0)
            worst_window = max(worst_window,
                               traffic.max_rate_in_window(st.times, 1.0))
        dl = traffic.generate_arrivals(traffic.TrafficModel(kind="dl_csi", seed=1),
                                       120.0)
        bi = burstiness_index(dl.times, 120.0, 0.1)
        ok = worst_window <= 10 and bi > 1.0
        report("8 traffic realism", ok,
               f"max BFI samples in any 1 s window: {worst_window} (cap 10); "
               f"DL burstiness index {bi:.1f} (> 1)")
        assert worst_window <= 10
        assert bi > 1.0


# ---------------------------------------------------------------------------
# criteria 5 & 6: multi-person separability and entropy ordering

EVAL_CFG = sra.SraConfig(fft_len=1024, hop=64)   # 16 s windows: 0.0625 Hz bins
HOLD_CFG = sra.SraConfig()                       # pipeline default: 4 s windows
TRUE_RATES = (12.0, 15.0, 18.0, 21.0)


def render_case_scene(seed):
    scene = demo_scene(seed=seed)
    duration = 120.0
    times = np.arange(int(duration * 64) + 1) / 64.0
    series = {u.user_id: scn_mod.render_csi(scene, u.user_id, times)
              for u in scene.users}
    series["baseline"] = scn_mod.render_csi(scene, "baseline", times)
    return scene, series, duration


class TestCriterion5Separability:
    def test_rate_errors_and_hold_gaps(self):
        t0 = time.time()
        near_errors, base_errors, hold_drops = [], [], []
        for seed in (1, 2, 3):
            scene, series, duration = render_case_scene(seed)
            base_spec = sra.process_series(series["baseline"], EVAL_CFG, duration)
            base_bpm = met.estimate_rate(base_spec).bpm
            for i, user in enumerate(scene.users):
                spec = sra.process_series(series[user.user_id], EVAL_CFG, duration)
                est = met.estimate_rate(spec)
                near_errors.append(abs(est.bpm - TRUE_RATES[i]))
                base_errors.append(abs(base_bpm - TRUE_RATES[i]))
                # breath-hold visibility on the default pipeline geometry
                hold = user.motion.holds[0]
                hold_spec = sra.process_series(series[user.user_id], HOLD_CFG, duration)
                margin = HOLD_CFG.fft_len / HOLD_CFG.f_rs / 2
                energy = met.band_energy(hold_spec, (0.1, 0.7))
                t = hold_spec.t0_s + np.arange(hold_spec.n_t) * hold_spec.frame_dt_s
                inside = (t > hold[0] + margin) & (t < hold[1] - margin)
                outside = (t < hold[0] - margin) | (t > hold[1] + margin)
                drop_db = 10 * math.log10(energy[outside].mean()
                                          / max(energy[inside].mean(), 1e-30))
                hold_drops.append(drop_db)
        near_med = float(np.median(near_errors))
        base_med = float(np.median(base_errors))
        elapsed = time.time() - t0
        ok = (near_med < 1.0 and base_med >= 3.0 * near_med
              and min(hold_drops) >= 6.0 and elapsed < 300.0)
        report("5 multi-person separability", ok,
               f"near-field median error {near_med:.2f} bpm (< 1); baseline "
               f"median {base_med:.2f} bpm ({base_med / max(near_med, 1e-9):.1f}x); "
               f"hold drop min {min(hold_drops):.1f} dB (>= 6); {elapsed:.0f} s")
        assert near_med < 1.0
        assert base_med >= 3.0 * near_med
        assert min(hold_drops) >= 6.0
        assert elapsed < 300.0


class TestCriterion6EntropyOrdering:
    def test_twenty_seeds(self):
        wins = 0
        near_vals, base_vals = [], []
        for seed in range(20):
            scene, series, duration = render_case_scene(100 + seed)
            base_h = met.spectral_entropy(
                sra.process_series(series["baseline"], EVAL_CFG, duration))
            near_h = np.mean([
                met.spectral_entropy(
                    sra.process_series(series[u.user_id], EVAL_CFG, duration))
                for u in scene.users])
            near_vals.append(near_h)
            base_vals.append(base_h)
            wins += int(near_h < base_h)
        ok = wins >= 18
        report("6 entropy ordering", ok,
               f"near-field < baseline in {wins}/20 seeds "
               f"(mean {np.mean(near_vals):.2f} vs {np.mean(base_vals):.2f} bits; "
               f"paper reports 1.2 vs 2.4)")
        assert wins >= 18


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism

class TestCriterion9Determinism:
    def test_every_subcommand_byte_identical(self, tmp_path):
        sim_args = ["simulate", "--duration", "3.0", "--uniform-rate", "64",
                    "--seed", "4"]
        runs = {
            "capacity": ["capacity", "--r", "1.0:1.3:0.05", "--seed", "4"],
            "feasible-map": ["feasible-map", "--resolution", "1.0",
                             "--extent=-2:-2:2:2", "--seed", "4"],
            "simulate": sim_args,
            "bfi-demo": ["bfi-demo", "--steps", "8", "--seed", "4"],
            "register-sim": ["register-sim", "--seed", "4"],
        }
        outputs = {}
        for name, args in runs.items():
            for tag in ("a", "b"):
                out = tmp_path / f"{name}-{tag}"
                assert main([str(a) for a in args] + ["--out", str(out)]) == 0
            outputs[name] = tmp_path / f"{name}-a"

        # chained commands, also run twice each
        sim_out = outputs["simulate"]
        chains = {
            # two links, so the dataset has a test pair and the test-set
            # evaluation is part of what must repeat byte for byte
            "build-dataset": ["build-dataset", "--csi",
                              str(sim_out / "csi_ue0.csv"), str(sim_out / "csi_ue1.csv"),
                              "--duration", "3.0",
                              "--set", "sra.fft_len=64", "--set", "sra.hop=8",
                              "--set", "sra.min_label_slice_s=1.0",
                              "--set", "dataset.max_label_frames=16",
                              "--set", "dataset.label_stride=8",
                              "--set", "dataset.masks_per_label=1", "--seed", "4"],
        }
        for name, args in chains.items():
            for tag in ("a", "b"):
                out = tmp_path / f"{name}-{tag}"
                assert main([str(a) for a in args] + ["--out", str(out)]) == 0
        ds = tmp_path / "build-dataset-a" / "dataset"
        trains = {
            "train": ["train", "--dataset", str(ds), "--epochs", "2",
                      "--set", "tcn.n_c=8", "--set", "tcn.bottleneck_dim=4",
                      "--set", "train.batch_size=4", "--seed", "4"],
        }
        for name, args in trains.items():
            for tag in ("a", "b"):
                out = tmp_path / f"{name}-{tag}"
                assert main([str(a) for a in args] + ["--out", str(out)]) == 0
        history = (tmp_path / "train-a" / "loss_history.csv").read_text().split()[1:]
        assert len(history) == 2
        assert all(math.isfinite(float(row.split(",")[2])) for row in history)
        spec_file = tmp_path / "build-dataset-a" / "spectrogram_csi_ue0.txt"
        finals = {
            "recover": ["recover", "--model",
                        str(tmp_path / "train-a" / "model.tcn"),
                        "--spectrogram", str(spec_file)],
            "eval": ["eval", "--spectrogram", str(spec_file),
                     "--band-lo", "0.5", "--band-hi", "4.0", "--true-rate", "12"],
        }
        for name, args in finals.items():
            for tag in ("a", "b"):
                out = tmp_path / f"{name}-{tag}"
                assert main([str(a) for a in args] + ["--out", str(out)]) == 0

        checked = []
        for name in list(runs) + list(chains) + list(trains) + list(finals):
            a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
            for root, _, files in os.walk(a):
                rel = os.path.relpath(root, a)
                for fname in files:
                    fa = os.path.join(root, fname)
                    fb = os.path.join(b, rel, fname)
                    assert filecmp.cmp(fa, fb, shallow=False), \
                        f"{name}: {rel}/{fname} differs between reruns"
                    checked.append(f"{name}/{fname}")
        report("9 CLI determinism", True,
               f"{len(checked)} output files byte-identical across reruns "
               f"over all 9 subcommands")
