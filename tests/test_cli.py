"""CLI tests: subcommand wiring, file outputs, error paths, determinism."""

import dataclasses
import filecmp
import os
import re

import numpy as np
import pytest

import capacity_reference
from nfsense.capacity import (DEFAULT_FIT, FitParams, refit_mirror, refit_radial,
                              write_capacity_csv)
from nfsense.cli import main
from nfsense.config import RunConfig, load_config
from nfsense.geometry import RadioConfig, load_raster
from nfsense.sra import Dataset, Spectrogram, SraConfig, save_dataset, save_spectrogram
from nfsense.tcn import TcnConfig, TcnModel, TrainConfig, save_model
from nfsense.traffic import TrafficModel


def run(args):
    return main([str(a) for a in args])


def write_spectrogram(path):
    data = np.random.default_rng(0).uniform(-1.0, 1.0, (32, 16))
    save_spectrogram(Spectrogram(data=data, no_data_cols=np.zeros(16, dtype=bool),
                                 frame_times=np.arange(16) * 0.25), path)
    return path


def tree_bytes(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def error_line(capsys):
    """The one stderr line of a failed command; it must start with ``error:``."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


class TestConfig:
    # Every key with its default: the module-config fields a run sets, then
    # the nine keys only the CLI reads.
    DEFAULTS = {
        "radio.lambda_m": 0.06, "radio.alpha": 4.0, "radio.eta": 1.0, "radio.b": 1.0,
        "radio.g_tilde": 1.0,
        "traffic.kind": "dl_csi", "traffic.mean_burst_s": 0.3, "traffic.mean_gap_s": 0.3,
        "traffic.rate_in_burst_hz": 1000.0, "traffic.contention_users": 1,
        "sra.dt": 0.1, "sra.n_nsp": 2, "sra.f_rs": 64.0, "sra.f_cut": 1.0, "sra.n_f": 32,
        "sra.fft_len": 256, "sra.hop": 16, "sra.min_label_slice_s": 4.0,
        "tcn.n_c": 64, "tcn.kernel_len": 5, "tcn.n_blocks": 4, "tcn.dilations": (1, 2, 4, 8),
        "tcn.bottleneck_dim": 16,
        "train.lr": 1e-3, "train.beta1": 0.9, "train.beta2": 0.999, "train.eps": 1e-8,
        "train.batch_size": 16, "train.epochs": 30, "train.grad_clip": 5.0,
        "train.masked_loss_only": False,
        "capacity.beta": 50.0, "capacity.delta_r": 0.1, "capacity.k": 2,
        "mask.fraction": 0.3, "mask.mean_run_frames": 8.0,
        "dataset.masks_per_label": 3, "dataset.split_fraction": 0.7,
        "dataset.max_label_frames": 128, "dataset.label_stride": 96,
    }

    def test_key_set_and_defaults_pinned(self):
        values = RunConfig().values
        assert len(values) == 40
        assert values == self.DEFAULTS
        assert {k: type(v) for k, v in values.items()} == \
            {k: type(v) for k, v in self.DEFAULTS.items()}

    def test_builders_share_the_dataclass_defaults(self):
        cfg = RunConfig()
        assert cfg.radio() == RadioConfig()
        assert cfg.sra() == SraConfig()
        assert cfg.tcn(seed=3) == TcnConfig(seed=3)
        assert cfg.train(seed=4) == TrainConfig(seed=4)
        assert cfg.traffic(seed=5) == TrafficModel(seed=5)

    def test_file_values_reach_the_builders(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text("sra.n_f=16\ntcn.dilations=1,2\ntcn.n_blocks=2\n"
                        "train.masked_loss_only=1\ntrain.epochs=7\ntraffic.kind=ul_bfi\n")
        cfg = load_config(path)
        assert cfg.tcn(seed=1) == TcnConfig(n_f=16, n_blocks=2, dilations=(1, 2), seed=1)
        assert cfg.train() == TrainConfig(masked_loss_only=True, epochs=7)
        assert cfg.traffic().kind == "ul_bfi"

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sra.f_rs=64\nwibble.wobble=3\n")
        with pytest.raises(ValueError, match="wibble.wobble") as exc:
            load_config(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("line, named", [
        ("tcn.seed=3", "tcn.seed"),             # builders supply seeds
        ("tcn.n_f=16", "tcn.n_f"),              # tcn.n_f is sra.n_f
        ("radio.eta=nan", "radio.eta"),
        ("sra.f_cut=inf", "sra.f_cut"),
        ("train.lr=-inf", "train.lr"),
        ("train.epochs=2.5", "train.epochs"),
        ("train.masked_loss_only=2", "train.masked_loss_only"),
        ("tcn.dilations=1,x", "tcn.dilations"),
        ("sra.f_rs 64", "malformed line"),
    ])
    def test_bad_file_names_file_and_key(self, tmp_path, line, named):
        path = tmp_path / "bad.cfg"
        path.write_text(f"sra.f_rs=64\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(named)) as exc:
            load_config(path)
        assert str(path) in str(exc.value)

    def test_cli_names_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("radio.alpha=nan\n")
        assert run(["capacity", "--config", path, "--out", tmp_path / "cap"]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "radio.alpha" in err

    def test_cli_names_bad_set(self, tmp_path, capsys):
        assert run(["capacity", "--set", "radio.alpha=inf", "--out", tmp_path / "cap"]) == 1
        assert "--set: bad config value radio.alpha" in capsys.readouterr().err

    def test_cli_names_set_without_equals(self, tmp_path, capsys):
        out = tmp_path / "cap"
        with pytest.raises(SystemExit) as exc:
            run(["capacity", "--set", "radio.alpha", "--out", out])
        assert exc.value.code == 2
        assert "argument --set: expected KEY=VALUE, got 'radio.alpha'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, lines", [
        ("radio.alpha=3\nsra.f_cut=2\nradio.alpha=4\n", "1 and 3"),
        ("radio.alpha=3\n\n# note\nradio.alpha = 3\n", "1 and 4"),   # same value
    ])
    def test_repeated_key_named(self, tmp_path, text, lines):
        path = tmp_path / "twice.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"'radio.alpha' repeated on lines {lines}$") as exc:
            load_config(path)
        assert str(path) in str(exc.value)

    def test_defaults_and_overrides(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\nsra.f_cut=20\ntrain.epochs=3\n")
        cfg = load_config(path)
        assert cfg["sra.f_cut"] == 20.0
        assert cfg["train.epochs"] == 3
        assert cfg["sra.f_rs"] == 64.0
        assert cfg.sra().f_cut == 20.0

    def test_set_rejects_unknown(self):
        cfg = RunConfig()
        with pytest.raises(ValueError, match="nope"):
            cfg.set("nope", 1)


class TestCapacityCommand:
    def test_paper_sweep_peak(self, tmp_path, capsys):
        out = tmp_path / "cap"
        rc = run(["capacity", "--alpha", 4, "--beta", 50, "--r", "2.8:3.2:0.01",
                  "--out", out])
        assert rc == 0
        lines = (out / "capacity.csv").read_text().strip().splitlines()
        peak = max(int(line.split(",")[1]) for line in lines[1:])
        assert peak == 51

    def test_bad_range_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["capacity", "--r", "1.0:2.0", "--out", tmp_path / "x"])

    @pytest.mark.parametrize("r", ["0.05:0.09:0.01", "2.0:1.0:0.1"])
    def test_empty_sweep_rejected_before_writing(self, tmp_path, capsys, r):
        out = tmp_path / "cap"
        assert run(["capacity", "--r", r, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"--r {r} holds no r above capacity.delta_r = 0.1" in err
        assert not out.exists()

    def test_search_overflow_names_r_and_b(self, tmp_path, capsys):
        # without the dynamic-channel term (b = 0) N_max grows without bound in r
        assert run(["capacity", "--set", "radio.b=0", "--r", "1e5:1e5:1",
                    "--out", tmp_path / "cap"]) == 1
        assert error_line(capsys) == ("error: exact N search exceeded 1000000 "
                                      "at r=100000 m with b=0 (radio.b)")

    def test_alias_error_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "cap"
        assert run(["capacity", "--beta", "inf", "--out", out]) == 1
        assert error_line(capsys).startswith(
            "error: --beta: bad config value capacity.beta='inf'")
        assert not out.exists()

    def test_alias_and_set_last_wins(self, tmp_path):
        def sweep(name, *flags):
            assert run(["capacity", *flags, "--r", "1.0:1.5:0.05",
                        "--out", tmp_path / name]) == 0
            return (tmp_path / name / "capacity.csv").read_bytes()

        alpha3, alpha4 = sweep("a3", "--alpha", 3), sweep("a4", "--alpha", 4)
        assert alpha3 != alpha4
        assert sweep("set_last", "--alpha", 3, "--set", "radio.alpha=4") == alpha4
        assert sweep("flag_last", "--set", "radio.alpha=4", "--alpha", 3) == alpha3

    @pytest.mark.parametrize("alpha", [4.0, 3.0])
    def test_readme_sweep_bytes_match_scalar_reference(self, tmp_path, alpha):
        out = tmp_path / "cap"
        assert run(["capacity", "--alpha", alpha, "--beta", 50, "--r", "0.3:4.0:0.01",
                    "--out", out]) == 0
        radio = dataclasses.replace(RadioConfig(), alpha=alpha)
        params = DEFAULT_FIT
        if alpha != 4.0:
            p1, p2, p3 = refit_radial(alpha)
            q1, q2, q3 = refit_mirror(alpha, 2)
            params = FitParams(p1=p1, p2=p2, p3=p3, q1=q1, q2=q2, q3=q3)
        write_capacity_csv(capacity_reference.capacity_rows(radio, 50.0, 0.1, 0.3, 4.0, 0.01,
                                                            2, params),
                           tmp_path / "reference.csv")
        assert (out / "capacity.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestFeasibleMapCommand:
    def test_rasters_written(self, tmp_path):
        out = tmp_path / "map"
        rc = run(["feasible-map", "--resolution", 0.5, "--extent=-4:-4:4:4",
                  "--out", out])
        assert rc == 0
        for name in ("vir_subject.txt", "vir_interferer.txt", "feasible.txt"):
            assert (out / name).exists()

    @pytest.mark.parametrize("flags, named", [
        (["--extent=-4:-4:inf:4"], "extent must be finite"),
        (["--resolution", "inf"], "resolution must be finite and > 0"),
    ])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, flags, named):
        assert run(["feasible-map", *flags, "--out", tmp_path / "map"]) == 1
        assert named in capsys.readouterr().err

    def test_candidate_ue_on_subject_is_infeasible(self, tmp_path):
        # The candidate cell (2.75, 0) places its own UE 0.25 m farther from
        # the AP, exactly on the subject (3, 0).  Its vir_interferer takes the
        # d_su -> 0 limit, 0, and the cell is infeasible.
        place = ["--ue", "3.25,0", "--subject", "3,0", "--resolution", 0.25]

        def rasters(extent, name):
            assert run(["feasible-map", *place, f"--extent={extent}",
                        "--out", tmp_path / name]) == 0
            return {f: load_raster(tmp_path / name / f"{f}.txt")[0]
                    for f in ("vir_subject", "vir_interferer", "feasible")}

        full = rasters("-4:-4:4.5:4", "full")
        row, col = 16, 27                               # y = 0, x = 2.75
        assert full["vir_interferer"][row, col] == 0.0
        assert full["feasible"][row, col] == 0.0
        assert np.isfinite(full["vir_subject"][row, col])
        # every other cell matches grids that leave the candidate out
        parts = {"below": ("-4:-4:4.5:-0.25", np.s_[:16, :]),
                 "above": ("-4:0.25:4.5:4", np.s_[17:, :]),
                 "left": ("-4:0:2.5:0.25", np.s_[16:18, :27]),
                 "right": ("3:0:4.5:0.25", np.s_[16:18, 28:])}
        for name, (extent, cells) in parts.items():
            part = rasters(extent, name)
            for f, values in part.items():
                assert np.array_equal(full[f][cells], values), (name, f)


class TestSimulatePipeline:
    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "sim"
        rc = run(["simulate", "--duration", 4.0, "--seed", 1, "--out", out])
        assert rc == 0
        assert (out / "scene.txt").exists()
        for i in range(4):
            assert (out / f"csi_ue{i}.csv").exists()
            assert (out / f"times_ue{i}.txt").exists()
        assert (out / "csi_baseline.csv").exists()

    def test_missing_scene_file(self, tmp_path):
        rc = run(["simulate", "--scene", tmp_path / "ghost.txt", "--out", tmp_path / "x"])
        assert rc == 1

    def test_chain_build_train_recover_eval(self, tmp_path):
        out = tmp_path / "chain"
        # short dense simulation so the pipeline yields label slices
        assert run(["simulate", "--duration", 40.0, "--uniform-rate", 64.0,
                    "--seed", 2, "--out", out]) == 0
        assert run(["build-dataset", "--csi", out / "csi_ue0.csv",
                    "--duration", 40.0, "--max-label-frames", 32,
                    "--set", "dataset.label_stride=24",
                    "--set", "dataset.masks_per_label=1",
                    "--seed", 2, "--out", out]) == 0
        assert (out / "dataset" / "train" / "0000.x").exists()
        assert run(["train", "--dataset", out / "dataset", "--epochs", 1,
                    "--set", "tcn.n_c=8", "--set", "tcn.bottleneck_dim=4",
                    "--set", "train.batch_size=4",
                    "--seed", 2, "--out", out]) == 0
        assert (out / "model.tcn").exists()
        assert (out / "loss_history.csv").exists()
        assert run(["recover", "--model", out / "model.tcn",
                    "--spectrogram", out / "spectrogram_csi_ue0.txt",
                    "--out", out]) == 0
        assert run(["eval", "--spectrogram", out / "spectrogram_csi_ue0.txt",
                    "--recovered", out / "recovered.txt",
                    "--truth", out / "recovered.txt",
                    "--true-rate", 12.0, "--out", out]) == 0
        text = (out / "metrics.csv").read_text()
        assert "recovery_mse,0.0" in text
        assert "near_rate_bpm" in text

    def test_max_label_frames_flag_is_the_key(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert run(["simulate", "--duration", 120, "--uniform-rate", 64, "--out", sim]) == 0
        csi = [sim / f"csi_ue{i}.csv" for i in range(4)]

        def build(name, *flags):
            capsys.readouterr()
            assert run(["build-dataset", "--csi", *csi, "--duration", 120, *flags,
                        "--out", tmp_path / name]) == 0
            return capsys.readouterr().out

        # 0 keeps every label slice whole: 4 slices, not 16 chopped ones
        assert build("flag", "--max-label-frames", 0) == build(
            "key", "--set", "dataset.max_label_frames=0") == \
            "dataset: 9 train pairs, 3 test pairs from 4 label slices\n"
        assert tree_bytes(tmp_path / "flag") == tree_bytes(tmp_path / "key")

    @pytest.mark.parametrize("source, setting", [
        ("--max-label-frames", "-5"),
        ("--set", "dataset.max_label_frames=-5"),
        ("--set", "dataset.label_stride=-1"),
        ("--config", "dataset.label_stride=-1"),
    ])
    def test_negative_frame_count_names_the_key(self, tmp_path, capsys, source, setting):
        sim = tmp_path / "sim"
        assert run(["simulate", "--duration", 4, "--uniform-rate", 64, "--out", sim]) == 0
        flags = [source, setting]
        if source == "--config":     # the error names the file
            source = tmp_path / "run.cfg"
            source.write_text(setting + "\n")
            flags = ["--config", source]
        out = tmp_path / "ds"
        capsys.readouterr()
        assert run(["build-dataset", "--csi", sim / "csi_ue0.csv", "--duration", 4,
                    "--out", out, *flags]) == 1
        line = error_line(capsys)
        assert line.startswith(f"error: {source}: bad config value dataset.") and \
            line.endswith("must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("traffic, ghost", [
        (["--uniform-rate", 64], True),
        # a short bursty link has no slice long enough to be a label
        (["--traffic-kind", "dl-csi"], False)])
    def test_build_dataset_writes_nothing_when_it_fails(self, tmp_path, capsys,
                                                        traffic, ghost):
        sim = tmp_path / "sim"
        assert run(["simulate", "--duration", 4, *traffic, "--seed", 1, "--out", sim]) == 0
        out, csi = tmp_path / "ds", [sim / "csi_ue0.csv"]
        if ghost:
            csi.append(tmp_path / "ghost.csv")
        out.mkdir()
        capsys.readouterr()
        assert run(["build-dataset", "--csi", *csi, "--duration", 4, "--out", out]) == 1
        assert error_line(capsys).startswith(f"error: {csi[1]}: " if ghost
                                             else "error: no eligible label slices")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("given, missing", [("--recovered", "--truth"),
                                                ("--truth", "--recovered")])
    def test_eval_half_pair_names_the_missing_flag(self, tmp_path, capsys, given, missing):
        spec = write_spectrogram(tmp_path / "spec.txt")
        out = tmp_path / "ev"
        assert run(["eval", given, spec, "--spectrogram", spec, "--out", out]) == 1
        assert error_line(capsys).startswith(f"error: {missing} is missing")
        assert not out.exists()

    def test_train_missing_dataset(self, tmp_path):
        assert run(["train", "--dataset", tmp_path / "none", "--out", tmp_path]) == 1

    def test_train_empty_test_split_warns(self, tmp_path, capsys):
        # one label slice splits 0.7 / 0.3 into one train pair and no test pair
        ds = tmp_path / "one_slice"
        pair = (np.full((32, 16), -1.0), np.full((32, 16), 0.5))
        save_dataset(Dataset(train=(pair,), test=()), ds)
        assert run(["train", "--dataset", ds, "--epochs", 1, "--set", "tcn.n_c=8",
                    "--set", "tcn.bottleneck_dim=4", "--out", tmp_path / "tr"]) == 0
        err = capsys.readouterr().err
        assert "empty test split" in err and str(ds) in err and "--uniform-rate" in err

    def test_train_empty_train_split_named(self, tmp_path, capsys):
        ds = tmp_path / "no_train"
        pair = (np.full((32, 16), -1.0), np.full((32, 16), 0.5))
        save_dataset(Dataset(train=(), test=(pair,)), ds)
        assert run(["train", "--dataset", ds, "--epochs", 1, "--out", tmp_path / "tr"]) == 1
        err = capsys.readouterr().err
        assert "empty train split" in err and str(ds) in err and "--uniform-rate" in err
        assert not (tmp_path / "tr").exists()


class TestUnreadableInputs:
    # {bad} is the input under test; {spec} and {model} are readable inputs
    # for the flags a command reads before it.
    COMMANDS = [
        ["simulate", "--scene", "{bad}"],
        ["build-dataset", "--csi", "{bad}"],
        ["train", "--dataset", "{bad}"],
        ["recover", "--model", "{bad}", "--spectrogram", "{spec}"],
        ["recover", "--model", "{model}", "--spectrogram", "{bad}"],
        ["eval", "--recovered", "{bad}", "--truth", "{spec}"],
        ["eval", "--recovered", "{spec}", "--truth", "{bad}"],
        ["eval", "--spectrogram", "{bad}"],
        ["eval", "--spectrogram", "{spec}", "--baseline-spectrogram", "{bad}"],
        ["register-sim", "--arrivals", "{bad}"],
        ["capacity", "--config", "{bad}"],
    ]

    @pytest.mark.parametrize("kind", ["missing", "wrong_kind"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + a[a.index("{bad}") - 1])
    def test_one_error_line_names_the_path(self, tmp_path, capsys, argv, kind):
        spec = write_spectrogram(tmp_path / "spec.txt")
        model = tmp_path / "model.tcn"
        save_model(TcnModel.initialize(TcnConfig(n_c=8, bottleneck_dim=4)), model)
        bad = tmp_path / "ghost"
        if kind == "wrong_kind":   # a directory where a file is read, and vice versa
            bad = spec if argv[0] == "train" else tmp_path
        paths = {"{bad}": bad, "{spec}": spec, "{model}": model}
        out = tmp_path / "out"
        assert run([paths.get(a, a) for a in argv] + ["--out", out]) == 1
        assert error_line(capsys).startswith(f"error: {bad}: ")
        assert not out.exists()


class TestBfiDemoCommand:
    def test_radial_sweep_columns(self, tmp_path):
        out = tmp_path / "bfi"
        # the CSI column is the closed-form excursion of the motion model;
        # the last radial step (2 wavelengths on both legs) reaches 8 pi
        rc = run(["bfi-demo", "--sweep", "radial", "--steps", 33, "--seed", 3,
                  "--out", out])
        assert rc == 0
        lines = (out / "bfi_sensitivity.csv").read_text().strip().splitlines()
        assert lines[0] == "step,csi_phase_change_rad,bfi_frobenius_change"
        assert len(lines) == 34
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(8 * np.pi, rel=1e-6)
        assert float(last[2]) < 1e-6

    def test_radial_sweep_at_pi_steps(self, tmp_path, capsys):
        # the criterion-9 command: 8 steps over 2 wavelengths move the
        # phase by more than pi per step, which must not alias
        out = tmp_path / "bfi"
        assert run(["bfi-demo", "--sweep", "radial", "--steps", 8, "--seed", 4,
                    "--out", out]) == 0
        lines = (out / "bfi_sensitivity.csv").read_text().strip().splitlines()
        assert float(lines[-1].split(",")[1]) == pytest.approx(8 * np.pi, rel=1e-9)
        assert "max CSI phase change 25.133 rad" in capsys.readouterr().out

    def test_radial_sweep_wide_array(self, tmp_path, capsys):
        # a 2x8 channel leaves six null-space columns to the SVD's choice;
        # only the two steering columns are fed back, so radial motion
        # still leaves the reconstructed matrix alone
        assert run(["bfi-demo", "--sweep", "radial", "--n-rx", 2, "--n-tx", 8,
                    "--out", tmp_path / "bfi"]) == 0
        out = capsys.readouterr().out
        assert float(out.rsplit("max BFI change ", 1)[1]) < 1e-6


    @pytest.mark.parametrize("flag, value", [("--steps", 0), ("--steps", -3),
                                             ("--bits-phi", -1), ("--bits-psi", -1)])
    def test_bad_flag_rejected_before_writing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bfi"
        with pytest.raises(SystemExit) as exc:
            run(["bfi-demo", flag, value, "--out", out])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= " in capsys.readouterr().err
        assert not out.exists()


class TestRegisterSimCommand:
    def test_default_script(self, tmp_path):
        out = tmp_path / "reg"
        rc = run(["register-sim", "--beta", 50, "--out", out])
        assert rc == 0
        log = (out / "admission_log.csv").read_text().strip().splitlines()
        assert log[0] == "step,user_id,action,admitted,reason,f_cut_hz"
        # the four corner users are admitted, the too-close u4 is not,
        # and u5 takes the departed u1's slot
        rows = {line.split(",")[1]: line.split(",") for line in log[1:]}
        assert rows["u0"][3] == "1"
        assert rows["u4"][3] == "0"
        assert rows["u5"][3] == "1"
        assert (out / "registry.csv").exists()


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["capacity", "--r", "1.0:1.5:0.05"],
        ["feasible-map", "--resolution", 1.0, "--extent=-2:-2:2:2"],
        ["simulate", "--duration", 2.0, "--seed", 7],
        ["bfi-demo", "--steps", 6, "--seed", 7],
        ["register-sim"],
    ])
    def test_byte_identical_reruns(self, tmp_path, args):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        for name in sorted(os.listdir(out_a)):
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name

