"""CLI tests: subcommand wiring, file outputs, error paths, determinism."""

import dataclasses
import filecmp
import math
import os
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest

import capacity_reference
from nfsense.bfi import ChannelMatrix, MotionUpdate, bfi_sensitivity_demo
from nfsense.capacity import (DEFAULT_FIT, FitParams, refit_mirror, refit_radial,
                              write_capacity_csv)
from nfsense.cli import demo_scene, main
from nfsense.config import RunConfig, load_config
from nfsense.geometry import RadioConfig
from nfsense.scene import MotionProfile, save_scene
from nfsense.sra import (Dataset, Spectrogram, SraConfig, load_dataset, save_dataset,
                         save_spectrogram)
from nfsense.tcn import TcnConfig, TcnModel, TrainConfig, load_model, save_model
from nfsense.traffic import TrafficModel
from textio_reference import load_raster


def run(args):
    return main([str(a) for a in args])


def write_spectrogram(path):
    data = np.random.default_rng(0).uniform(-1.0, 1.0, (32, 16))
    save_spectrogram(Spectrogram(data=data, no_data_cols=np.zeros(16, dtype=bool),
                                 t0_s=0.0, frame_dt_s=0.25, df_hz=0.25), path)
    return path


def hidden_label(n_f=32):
    """A 0.5 label of 16 frames and the one mask of its input, which hides every frame."""
    return np.full((n_f, 16), 0.5), np.ones((1, 16), dtype=bool)


def tree_bytes(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def assert_usage_error(capsys, tmp_path, argv, message):
    """``argv`` exits 2 naming the flag, and ``--out`` stays empty."""
    out = tmp_path / "out"
    out.mkdir(parents=True)
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", out])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


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
        "tcn.n_c": 64, "tcn.kernel_len": 5, "tcn.dilations": (1, 2, 4),
        "tcn.bottleneck_dim": 16,
        "train.lr": 1e-3, "train.beta1": 0.9, "train.beta2": 0.999, "train.eps": 1e-8,
        "train.batch_size": 16, "train.epochs": 30, "train.grad_clip": 5.0,
        "capacity.beta": 50.0, "capacity.delta_r": 0.1, "capacity.k": 2,
        "mask.fraction": 0.3, "mask.mean_run_frames": 8.0,
        "dataset.masks_per_label": 3, "dataset.split_fraction": 0.7,
        "dataset.max_label_frames": 128, "dataset.label_stride": 96,
    }

    def test_key_set_and_defaults_pinned(self):
        values = RunConfig().values
        assert len(values) == 38
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
        path.write_text("sra.n_f=16\ntcn.dilations=1,2\n"
                        "train.lr=0.002\ntrain.epochs=7\ntraffic.kind=ul_bfi\n")
        cfg = load_config(path)
        assert cfg.tcn(seed=1) == TcnConfig(n_f=16, dilations=(1, 2), seed=1)
        assert cfg.train() == TrainConfig(lr=0.002, epochs=7)
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
        ("train.masked_loss_only=2", "train.masked_loss_only"),   # not a key
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

    @pytest.mark.parametrize("key", ["tcn.n_blocks", "tcn.activation",
                                     "train.masked_loss_only"])
    def test_removed_tcn_keys_named(self, tmp_path, capsys, key):
        # the block count is len(tcn.dilations), relu is the only activation,
        # and training always minimizes the full-spectrogram loss
        out = tmp_path / "cap"
        assert run(["capacity", "--set", f"{key}=4", "--out", out]) == 1
        assert error_line(capsys) == f"error: --set: unknown config key {key!r}"
        assert not out.exists()


class TestCapacityCommand:
    def test_paper_sweep_peak(self, tmp_path, capsys):
        out = tmp_path / "cap"
        rc = run(["capacity", "--alpha", 4, "--beta", 50, "--r", "2.8:3.2:0.01",
                  "--out", out])
        assert rc == 0
        lines = (out / "capacity.csv").read_text().strip().splitlines()
        peak = max(int(line.split(",")[1]) for line in lines[1:])
        assert peak == 51

    def test_bad_range_flag(self, tmp_path, capsys):
        for i, r in enumerate(["1.0:2.0", "1:2:x", "1:2:3:4"]):
            assert_usage_error(capsys, tmp_path / str(i), ["capacity", "--r", r],
                               f"argument --r: expected START:STOP:STEP (3 numbers), got '{r}'")

    @pytest.mark.parametrize("r", ["0.05:0.09:0.01"])
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

    def test_extent_too_far_for_delta_i_named(self, tmp_path, capsys):
        # 1e150 m out, each candidate's mirrored UE, 0.1 m past it, rounds onto it
        assert run(["feasible-map", "--extent=1e150:0:2e150:1e150", "--resolution", 5e149,
                    "--out", tmp_path / "map"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: extent (1e+150, 0.0, 2e+150, 1e+150) is too far")
        assert "delta_i = 0.1 m" in err and "rounds onto the candidate" in err
        assert not (tmp_path / "map").exists()

    def test_far_ap_named(self, tmp_path, capsys):
        # every candidate's squared distance to the AP overflows, so the
        # direction that places its mirrored UE is 0: the AP is to blame
        assert run(["feasible-map", "--ap=1e200,0", "--resolution", 0.5,
                    "--out", tmp_path / "map"]) == 1
        line = error_line(capsys)
        assert line.startswith("error: AP (1e+200, 0.0) is too far from the origin")
        assert line.endswith("use an AP nearer the origin")
        assert not (tmp_path / "map").exists()

    def test_overflowing_extent_prints_only_the_error(self, tmp_path, capsys):
        # past about 1e154 m the squared distances overflow; no numpy warning
        # may come before the error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["feasible-map", "--extent=1e200:0:1.5e200:1e200",
                        "--resolution", 5e199, "--out", tmp_path / "map"]) == 1
        assert error_line(capsys).startswith(
            "error: extent (1e+200, 0.0, 1.5e+200, 1e+200) is too far")
        assert not (tmp_path / "map").exists()

    def test_still_subject_runs(self, tmp_path):
        assert run(["feasible-map", "--subject-speed", 0, "--resolution", 1.0,
                    "--extent=-2:-2:2:2", "--out", tmp_path / "map"]) == 0

    @pytest.mark.parametrize("flag, value, metavar", [
        ("--ap", "1", "X,Y (2 numbers)"), ("--ue", "a,b", "X,Y (2 numbers)"),
        ("--subject", "1,2,3", "X,Y (2 numbers)"),
        ("--extent", "1:2", "X0:Y0:X1:Y1 (4 numbers)")])
    def test_malformed_point_or_extent_names_the_flag(self, tmp_path, capsys, flag, value,
                                                      metavar):
        assert_usage_error(capsys, tmp_path, ["feasible-map", flag, value],
                           f"argument {flag}: expected {metavar}, got '{value}'")

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
        # a link's sample times are the t_s column of its CSI file, and no other
        assert sorted(p.name for p in out.iterdir()) == [
            "csi_baseline.csv", *(f"csi_ue{i}.csv" for i in range(4)), "scene.txt"]

    def test_gesture_and_activity_scene(self, tmp_path):
        demo = demo_scene(seed=1)
        gesture = MotionProfile(kind="gesture", seed=1)
        activity = MotionProfile(kind="activity", rms_speed=1.0, bandwidth_hz=15.0, seed=2)
        users = (dataclasses.replace(demo.users[0], motion=gesture),
                 dataclasses.replace(demo.users[1], motion=activity))
        scene, out = tmp_path / "scene.txt", tmp_path / "sim"
        save_scene(dataclasses.replace(demo, users=users), scene)
        assert run(["simulate", "--scene", scene, "--duration", 4, "--uniform-rate", 64,
                    "--out", out]) == 0
        assert (out / "scene.txt").read_bytes() == scene.read_bytes()
        assert sorted(p.name for p in out.glob("csi_*.csv")) == \
            ["csi_baseline.csv", "csi_ue0.csv", "csi_ue1.csv"]

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
        assert (out / "dataset" / "train" / "0000.0000.x").exists()
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

    def test_eval_reads_the_bin_width_from_the_file(self, tmp_path, capsys):
        # 16 s windows give 0.0625 Hz bins; eval, given no --set, must read
        # them from the file, not the default config's 0.25 Hz
        out = tmp_path / "wide"
        assert run(["simulate", "--duration", 60, "--uniform-rate", 64, "--seed", 1,
                    "--out", out]) == 0
        assert run(["build-dataset", "--csi", out / "csi_ue0.csv", "--duration", 60,
                    "--set", "sra.fft_len=1024", "--set", "sra.hop=64", "--seed", 1,
                    "--out", out]) == 0
        capsys.readouterr()
        assert run(["eval", "--spectrogram", out / "spectrogram_csi_ue0.txt",
                    "--true-rate", 12, "--out", out / "ev"]) == 0
        rows = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert float(rows["near_rate_error_bpm"]) < 1.0

    # bfi-demo reads its --seed; recover and eval read none
    REFUSED = [(argv, flag) for flag in ("--config=run.cfg", "--set=no.such_key=1", "--seed=1")
               for argv in (["recover", "--model", "model.tcn", "--spectrogram", "spec.txt"],
                            ["eval", "--spectrogram", "spec.txt"], ["bfi-demo"])
               if not (flag == "--seed=1" and argv == ["bfi-demo"])]

    @pytest.mark.parametrize("argv, flag", REFUSED,
                             ids=[f"{flag}-argv{i % 3}" for i, (_, flag) in enumerate(REFUSED)])
    def test_config_flags_refused_where_nothing_reads_them(self, tmp_path, capsys, argv,
                                                           flag):
        assert_usage_error(capsys, tmp_path, [*argv, flag], "unrecognized arguments")

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

    # (source, setting, key, range): each is refused before anything is read,
    # even on a lone bursty link that yields no dataset to check them on
    OUT_OF_RANGE = [
        ("--max-label-frames", "-5", "dataset.max_label_frames", ">= 0"),
        ("--set", "dataset.max_label_frames=-5", "dataset.max_label_frames", ">= 0"),
        ("--set", "dataset.label_stride=-1", "dataset.label_stride", ">= 0"),
        ("--config", "dataset.label_stride=-1", "dataset.label_stride", ">= 0"),
        ("--set", "dataset.masks_per_label=0", "dataset.masks_per_label", ">= 1"),
        ("--config", "dataset.masks_per_label=-2", "dataset.masks_per_label", ">= 1"),
        ("--set", "mask.fraction=5", "mask.fraction", "in [0, 1]"),
        ("--config", "mask.fraction=-0.1", "mask.fraction", "in [0, 1]"),
        ("--set", "dataset.split_fraction=1.5", "dataset.split_fraction", "in [0, 1]"),
        ("--config", "dataset.split_fraction=-1", "dataset.split_fraction", "in [0, 1]"),
        ("--set", "mask.mean_run_frames=0", "mask.mean_run_frames", "> 0"),
        ("--config", "mask.mean_run_frames=-8", "mask.mean_run_frames", "> 0"),
    ]

    @pytest.mark.parametrize("source, setting, key, bound", OUT_OF_RANGE,
                             ids=[f"{source}-{setting}" for source, setting, *_ in OUT_OF_RANGE])
    def test_negative_frame_count_names_the_key(self, tmp_path, capsys, source, setting,
                                                key, bound):
        sim = tmp_path / "sim"
        assert run(["simulate", "--duration", 4, "--traffic-kind", "dl-csi",
                    "--out", sim]) == 0
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
        assert line.startswith(f"error: {source}: bad config value {key}=") and \
            line.endswith(f"must be {bound}")
        assert not out.exists()

    def test_in_range_edges_accepted(self):
        cfg = RunConfig()
        for key, value in (("dataset.masks_per_label", 1), ("mask.fraction", 0),
                           ("mask.fraction", 1), ("dataset.split_fraction", 1),
                           ("mask.mean_run_frames", 0.5), ("dataset.label_stride", 0)):
            cfg.set(key, str(value))
            assert cfg[key] == value

    def test_traffic_kind_flag_is_the_key(self, tmp_path):
        def simulate(name, *flags):
            assert run(["simulate", "--duration", 8, "--seed", 1, *flags,
                        "--out", tmp_path / name]) == 0
            return tree_bytes(tmp_path / name)

        config = tmp_path / "run.cfg"
        config.write_text("traffic.kind=ul_bfi\n")
        ul_bfi = simulate("flag", "--traffic-kind", "ul-bfi")
        assert ul_bfi != simulate("default")
        assert simulate("key", "--set", "traffic.kind=ul_bfi") == ul_bfi
        assert simulate("config", "--config", config) == ul_bfi
        assert simulate("set_last", "--traffic-kind", "dl-csi",
                        "--set", "traffic.kind=ul_bfi") == ul_bfi
        assert simulate("flag_last", "--config", config, "--set", "traffic.kind=dl_csi",
                        "--traffic-kind", "ul-bfi") == ul_bfi
        assert simulate("dl_csi", "--config", config, "--traffic-kind", "dl-csi") == \
            simulate("default")

    def test_traffic_kind_flag_takes_only_its_choices(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--traffic-kind", "ul_bfi", "--out", tmp_path / "sim"])
        assert exc.value.code == 2
        assert "argument --traffic-kind: invalid choice 'ul_bfi'" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("argv, flag, value", [
        (["simulate", "--uniform-rate", 64], "--duration", "-1"),
        (["simulate"], "--duration", "0"),                 # bursty traffic
        (["simulate"], "--duration", "inf"),
        (["simulate"], "--uniform-rate", "0"),
        (["simulate"], "--uniform-rate", "nan"),
        (["simulate", "--duration", 4], "--uniform-rate", "-64"),
        (["build-dataset", "--csi", "csi_ue0.csv"], "--duration", "inf"),
        (["build-dataset", "--csi", "csi_ue0.csv"], "--duration", "-1"),
        # the model's other numeric flags: finite, and > 0 but for the last four
        (["feasible-map"], "--resolution", "inf"),
        (["feasible-map"], "--resolution", "nan"),
        (["feasible-map"], "--resolution", "0"),
        (["feasible-map"], "--beta", "nan"),
        (["register-sim"], "--beta", "nan"),
        (["register-sim"], "--beta", "-50"),
        (["register-sim"], "--delta-r", "inf"),
        (["register-sim"], "--delta-r", "0"),
        (["feasible-map"], "--subject-speed", "nan"),
        (["eval", "--spectrogram", "spec.txt"], "--true-rate", "nan"),
        # a speed or rate may be 0, but not below
        (["feasible-map"], "--subject-speed", "-1"),
        (["eval", "--spectrogram", "spec.txt"], "--true-rate", "-1"),
        # the X,Y, X0:Y0:X1:Y1 and START:STOP:STEP flags: every field finite
        (["feasible-map"], "--ap", "nan,0"),
        (["feasible-map"], "--ue", "3.1,inf"),
        (["feasible-map"], "--subject", "-inf,0"),
        (["feasible-map"], "--extent", "-4:-4:inf:4"),
        (["capacity"], "--r", "0.3:inf:0.1"),
        # a sweep steps up from START to STOP
        (["capacity"], "--r", "4:0.3:0.01"),
        (["capacity"], "--r", "2.0:1.0:0.1"),
        (["capacity"], "--r", "0.3:4:0"),
        (["capacity"], "--r", "0.3:4:-0.1")])
    def test_impossible_sampling_rejected_before_writing(self, tmp_path, capsys, argv,
                                                         flag, value):
        if flag in ("--subject-speed", "--true-rate"):
            message = f"must be finite and >= 0, got '{value}'"
        elif flag == "--r" and all(map(math.isfinite, map(float, value.split(":")))):
            message = f"must have STEP > 0 and STOP >= START, got '{value}'"
        elif flag in ("--ap", "--ue", "--subject", "--extent", "--r"):
            message = f"must be finite, got '{value}'"
        else:
            message = f"must be finite and > 0, got '{value}'"
        assert_usage_error(capsys, tmp_path, [*argv, f"{flag}={value}"],
                           f"argument {flag}: {message}")

    @pytest.mark.parametrize("traffic, ghost", [
        (["--uniform-rate", 64], True),
        # a short bursty link has no slice long enough to be a label: its
        # spectrogram is written and the dataset is not
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
        rc = run(["build-dataset", "--csi", *csi, "--duration", 4, "--out", out])
        if ghost:
            assert rc == 1
            assert error_line(capsys).startswith(f"error: {csi[1]}: ")
            assert list(out.iterdir()) == []
        else:
            assert rc == 0
            assert capsys.readouterr().out == (
                "no dataset written: the longest dense run is 0 frames, and a label slice "
                f"needs 16 (sra.min_label_slice_s = 4 s); no dataset is left in {out}/dataset\n")
            assert [p.name for p in out.iterdir()] == ["spectrogram_csi_ue0.txt"]

    def test_build_dataset_refuses_a_repeated_file_name(self, tmp_path, capsys):
        # two links from different directories would share one spectrogram file
        sim, other, out = tmp_path / "sim", tmp_path / "other", tmp_path / "ds"
        assert run(["simulate", "--duration", 12, "--uniform-rate", 64, "--seed", 1,
                    "--out", sim]) == 0
        other.mkdir()
        (other / "csi_ue0.csv").write_bytes((sim / "csi_ue0.csv").read_bytes())
        csi = [sim / "csi_ue0.csv", sim / "csi_ue1.csv", other / "csi_ue0.csv"]
        out.mkdir()
        capsys.readouterr()
        assert run(["build-dataset", "--csi", *csi, "--duration", 12, "--out", out]) == 1
        assert error_line(capsys) == (f"error: --csi {csi[0]} and {csi[2]} would both write "
                                      "spectrogram_csi_ue0.txt; give each link its own "
                                      "file name")
        assert list(out.iterdir()) == []

    def test_rebuild_replaces_the_dataset(self, tmp_path):
        # a second build into the same --out must not pair its labels with
        # the first build's masks
        sim, fresh = tmp_path / "sim", tmp_path / "fresh"
        assert run(["simulate", "--duration", 120, "--uniform-rate", 64, "--seed", 1,
                    "--out", sim]) == 0
        csi = [sim / f"csi_ue{i}.csv" for i in range(4)]
        assert run(["build-dataset", "--csi", *csi, "--set", "dataset.masks_per_label=3",
                    "--out", sim]) == 0
        assert len(list((sim / "dataset" / "train").iterdir())) == 44
        for out in (sim, fresh):
            assert run(["build-dataset", "--csi", csi[0], "--set", "dataset.masks_per_label=1",
                        "--out", out]) == 0
        ds = load_dataset(sim / "dataset")
        assert (len(ds.train), len(ds.test)) == (3, 1)
        assert tree_bytes(sim / "dataset") == tree_bytes(fresh / "dataset")

    def test_failed_rebuild_leaves_no_dataset(self, tmp_path, capsys):
        # a build that writes no dataset removes the previous one, so train
        # cannot pair its labels with the new link's spectrogram
        dense, bursty, out = tmp_path / "dense", tmp_path / "bursty", tmp_path / "o"
        assert run(["simulate", "--duration", 40, "--uniform-rate", 64, "--seed", 1,
                    "--out", dense]) == 0
        assert run(["build-dataset", "--csi", dense / "csi_ue0.csv", dense / "csi_ue1.csv",
                    "--duration", 40, "--out", out]) == 0
        assert len(list((out / "dataset" / "train").iterdir())) == 4
        assert run(["simulate", "--duration", 20, "--traffic-kind", "dl-csi", "--seed", 1,
                    "--out", bursty]) == 0
        (out / "dataset" / "test" / "notes.txt").write_text("kept\n")
        capsys.readouterr()
        assert run(["build-dataset", "--csi", bursty / "csi_ue0.csv", "--duration", 20,
                    "--out", out]) == 0
        assert capsys.readouterr().out.startswith("no dataset written: ")
        assert sorted(p.name for p in (out / "dataset").rglob("*.*")) == ["notes.txt"]
        assert run(["train", "--dataset", out / "dataset", "--epochs", 1,
                    "--out", out / "tr"]) == 1
        assert error_line(capsys).startswith("error: empty train split: ")
        assert not (out / "tr").exists()

    def test_rebuild_removes_an_old_format_dataset(self, tmp_path, capsys):
        # a pair-format NNNN.x (a table) left in --out made train refuse the
        # rebuilt dataset; files that are not .y or .x are kept
        out = tmp_path / "chain"
        assert run(["simulate", "--duration", 40, "--uniform-rate", 64, "--seed", 2,
                    "--out", out]) == 0
        train_dir = out / "dataset" / "train"
        train_dir.mkdir(parents=True)
        (train_dir / "0000.x").write_text("0.5 -1\n0.5 -1\n")
        (train_dir / "0000.y").write_text("0.5 0.5\n0.5 0.5\n")
        (train_dir / "notes.txt").write_text("kept\n")
        assert run(["build-dataset", "--csi", out / "csi_ue0.csv", "--max-label-frames", 32,
                    "--set", "dataset.masks_per_label=1", "--out", out]) == 0
        assert not (train_dir / "0000.x").exists()
        assert (train_dir / "notes.txt").read_text() == "kept\n"
        capsys.readouterr()
        assert run(["train", "--dataset", out / "dataset", "--epochs", 1,
                    "--set", "tcn.n_c=8", "--set", "tcn.bottleneck_dim=4",
                    "--out", out / "tr"]) == 0

    @pytest.mark.parametrize("given, missing", [("--recovered", "--truth"),
                                                ("--truth", "--recovered")])
    def test_eval_half_pair_names_the_missing_flag(self, tmp_path, capsys, given, missing):
        spec = write_spectrogram(tmp_path / "spec.txt")
        out = tmp_path / "ev"
        assert run(["eval", given, spec, "--spectrogram", spec, "--out", out]) == 1
        assert error_line(capsys).startswith(f"error: {missing} is missing")
        assert not out.exists()

    def test_eval_names_both_files_on_a_shape_mismatch(self, tmp_path, capsys):
        rec = write_spectrogram(tmp_path / "recovered.txt")
        truth = tmp_path / "truth.txt"
        save_spectrogram(Spectrogram(data=np.zeros((32, 20)),
                                     no_data_cols=np.zeros(20, dtype=bool),
                                     t0_s=0.0, frame_dt_s=0.25, df_hz=0.25), truth)
        out = tmp_path / "ev"
        assert run(["eval", "--recovered", rec, "--truth", truth, "--out", out]) == 1
        assert error_line(capsys) == (
            f"error: --recovered {rec} is 32 x 16 but --truth {truth} is 32 x 20: pass as "
            "--truth the spectrogram the recovery was run on")
        assert not out.exists()

    @pytest.mark.parametrize("lo, hi", [(0.7, 0.1), (0.5, 0.5), ("nan", 0.7), (0.1, "inf")])
    def test_eval_bad_band_names_both_flags(self, tmp_path, capsys, lo, hi):
        spec = write_spectrogram(tmp_path / "spec.txt")
        out = tmp_path / "ev"
        assert run(["eval", "--spectrogram", spec, "--band-lo", lo, "--band-hi", hi,
                    "--out", out]) == 1
        line = error_line(capsys)
        assert "--band-lo" in line and "--band-hi" in line and "coverage" not in line
        assert not out.exists()

    def test_train_block_count_follows_dilations(self, tmp_path):
        ds = tmp_path / "ds"
        save_dataset(Dataset(train_labels=(hidden_label(),), test_labels=(hidden_label(),)), ds)
        assert run(["train", "--dataset", ds, "--epochs", 1, "--set", "tcn.dilations=1,2",
                    "--set", "tcn.n_c=8", "--set", "tcn.bottleneck_dim=4",
                    "--out", tmp_path / "tr"]) == 0
        model = load_model(tmp_path / "tr" / "model.tcn")
        assert model.config.dilations == (1, 2) and model.config.n_blocks == 2
        assert {name.split(".")[0] for name in model.params if name.startswith("block")} \
            == {"block0", "block1"}
        spec = write_spectrogram(tmp_path / "spec.txt")
        assert run(["recover", "--model", tmp_path / "tr" / "model.tcn",
                    "--spectrogram", spec, "--out", tmp_path / "rec"]) == 0

    def test_train_takes_n_f_from_the_dataset(self, tmp_path):
        # 16-row labels, as build-dataset --set sra.n_f=16 writes them, and no --set
        ds = tmp_path / "ds"
        label = hidden_label(16)
        save_dataset(Dataset(train_labels=(label,), test_labels=(label,)), ds)
        assert run(["train", "--dataset", ds, "--epochs", 1, "--set", "tcn.n_c=8",
                    "--set", "tcn.bottleneck_dim=4", "--out", tmp_path / "tr"]) == 0
        assert load_model(tmp_path / "tr" / "model.tcn").config.n_f == 16

    def test_recover_names_both_files_on_a_row_mismatch(self, tmp_path, capsys):
        # a model of 16-row spectrograms, as train writes it from a dataset built
        # with --set sra.n_f=16, against a 32-row spectrogram
        model = tmp_path / "model.tcn"
        save_model(TcnModel.initialize(TcnConfig(n_f=16, n_c=8, bottleneck_dim=4)), model)
        spec = write_spectrogram(tmp_path / "spec.txt")
        out = tmp_path / "rec"
        assert run(["recover", "--model", model, "--spectrogram", spec, "--out", out]) == 1
        assert error_line(capsys) == (
            f"error: {spec} has 32 frequency rows, but {model} was trained on 16: rebuild "
            "the spectrogram with sra.n_f=16, or retrain the model on a dataset built with "
            "sra.n_f=32")
        assert not out.exists()

    def test_train_refuses_labels_that_differ_in_rows(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        save_dataset(Dataset(train_labels=(hidden_label(32),),
                             test_labels=(hidden_label(16),)), ds)
        assert run(["train", "--dataset", ds, "--epochs", 1, "--out", tmp_path / "tr"]) == 1
        assert error_line(capsys) == (
            f"error: {ds / 'test' / '0000.y'}: 16 rows, expected 32 as in "
            f"{ds / 'train' / '0000.y'}")
        assert not (tmp_path / "tr").exists()

    def test_train_missing_dataset(self, tmp_path):
        assert run(["train", "--dataset", tmp_path / "none", "--out", tmp_path]) == 1

    def test_train_empty_test_split_warns(self, tmp_path, capsys):
        # one label slice splits 0.7 / 0.3 into one train pair and no test pair
        ds = tmp_path / "one_slice"
        save_dataset(Dataset(train_labels=(hidden_label(),), test_labels=()), ds)
        assert run(["train", "--dataset", ds, "--epochs", 1, "--set", "tcn.n_c=8",
                    "--set", "tcn.bottleneck_dim=4", "--out", tmp_path / "tr"]) == 0
        err = capsys.readouterr().err
        assert "empty test split" in err and str(ds) in err and "--uniform-rate" in err

    def test_train_empty_train_split_named(self, tmp_path, capsys):
        ds = tmp_path / "no_train"
        save_dataset(Dataset(train_labels=(), test_labels=(hidden_label(),)), ds)
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
                                             ("--bits-phi", -1), ("--bits-psi", -1),
                                             ("--n-tx", 0), ("--n-rx", 0), ("--n-rx", -1),
                                             ("--max-dtheta", "nan"), ("--max-dtheta", "inf")])
    def test_bad_flag_rejected_before_writing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bfi"
        with pytest.raises(SystemExit) as exc:
            run(["bfi-demo", flag, value, "--out", out])
        assert exc.value.code == 2
        bound = "finite" if flag == "--max-dtheta" else ">= "
        assert f"argument {flag}: must be {bound}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-0.02"])
    def test_max_dtheta_zero_or_negative_runs(self, tmp_path, value):
        assert run(["bfi-demo", "--sweep", "angular", "--steps", 3, f"--max-dtheta={value}",
                    "--out", tmp_path / "bfi"]) == 0

    @pytest.mark.parametrize("value", ["0", "-0.06", "nan"])
    def test_wavelength_must_be_positive(self, tmp_path, capsys, value):
        assert_usage_error(capsys, tmp_path, ["bfi-demo", f"--lambda-m={value}"],
                           f"argument --lambda-m: must be finite and > 0, got '{value}'")

    @pytest.mark.parametrize("sweep", ["radial", "angular"])
    def test_sweep_bytes_match_separately_built_motions(self, tmp_path, sweep):
        # each step's motion differs from the still one in the swept field alone
        out = tmp_path / "bfi"
        assert run(["bfi-demo", "--sweep", sweep, "--steps", 5, "--seed", 2,
                    "--out", out]) == 0
        rng = np.random.default_rng(np.random.SeedSequence((2, 0xBF1)))
        h0 = ChannelMatrix(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        motions = []
        for x in np.linspace(0.0, 0.12 if sweep == "radial" else 0.02, 5):
            d = float(x) if sweep == "radial" else 0.0
            motions.append(MotionUpdate(
                delta_theta=0.0 if sweep == "radial" else float(x), delta_d_t=d,
                delta_d_r=(d, d), rho=(1.0, 1.0), ell=0.03, theta=math.pi / 4))
        rows = bfi_sensitivity_demo(h0, motions, 0.06)
        assert (out / "bfi_sensitivity.csv").read_text().splitlines()[1:] == \
            [f"{i},{csi:.9e},{change:.9e}" for i, (csi, change) in enumerate(rows)]


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

    GOOD = "u0,1.41,0.0,respiration,ul_csi,register"

    @pytest.mark.parametrize("rows, line, match", [
        (["u0,1.41,0.0,respiration,ul_csi"], 2, "expected 6 fields"),
        (["u0,1.41,0.0,respiration,ul_csi,register,1"], 2, "expected 6 fields"),
        ([GOOD, "u1,abc,0.0,respiration,ul_csi,register"], 3, "'abc'"),
        ([GOOD, "u1,0.0,,respiration,ul_csi,register"], 3, "convert string to float"),
        ([GOOD, "", "u1,0.0,1.41,dance,ul_csi,register"], 4, "motion_type must be one of"),
        (["u0,1.41,0.0,respiration,carrier_pigeon,register"], 2, "strategy must be one of"),
        ([GOOD, "u0,1.41,0.0,respiration,ul_csi,wave"], 3, "unknown action 'wave'"),
        (["u9,1.41,0.0,respiration,ul_csi,deregister"], 2, "unknown user_id 'u9'"),
    ])
    def test_bad_script_row_names_file_and_line(self, tmp_path, capsys, rows, line, match):
        script = tmp_path / "arrivals.csv"
        script.write_text("\n".join(["user_id,x,y,motion_type,strategy,action", *rows]) + "\n")
        out = tmp_path / "reg"
        assert run(["register-sim", "--arrivals", script, "--out", out]) == 1
        error = error_line(capsys)
        assert error.startswith(f"error: {script}: line {line}: ") and match in error
        assert not out.exists()

    @pytest.mark.parametrize("header", ["user_id,x,y,motion,strategy,action",
                                        "u0,1.41,0.0,respiration,ul_csi,register", ""])
    def test_bad_script_header_named(self, tmp_path, capsys, header):
        script = tmp_path / "arrivals.csv"
        script.write_text(header + "\n" + self.GOOD + "\n")
        out = tmp_path / "reg"
        assert run(["register-sim", "--arrivals", script, "--out", out]) == 1
        assert error_line(capsys) == (f"error: {script}: first line must be the header "
                                      "user_id,x,y,motion_type,strategy,action")
        assert not out.exists()


class TestCsvOutputs:
    # (header, command, file) of every CSV the CLI writes
    CASES = [
        ("r_m,n_max_fit,n_max_exact,dd_min_fit_m,dd_min_exact_m,feasible",
         ["capacity", "--r", "1.0:1.2:0.1"], "capacity.csv"),
        ("user_id,x_m,y_m,motion_type,strategy,f_cut_hz", ["register-sim"], "registry.csv"),
        ("step,user_id,action,admitted,reason,f_cut_hz", ["register-sim"], "admission_log.csv"),
        ("epoch,train_mse,test_mse",
         ["train", "--dataset", "{ds}", "--epochs", 1, "--set", "tcn.n_c=8",
          "--set", "tcn.bottleneck_dim=4"], "loss_history.csv"),
        ("metric,value", ["eval", "--spectrogram", "{spec}"], "metrics.csv"),
        ("step,csi_phase_change_rad,bfi_frobenius_change", ["bfi-demo", "--steps", 4],
         "bfi_sensitivity.csv"),
    ]

    @pytest.mark.parametrize("header, argv, name", CASES, ids=[c[2] for c in CASES])
    def test_header_then_lf_lines(self, tmp_path, header, argv, name):
        save_dataset(Dataset(train_labels=(hidden_label(),), test_labels=(hidden_label(),)),
                     tmp_path / "ds")
        inputs = {"{ds}": tmp_path / "ds", "{spec}": write_spectrogram(tmp_path / "spec.txt")}
        out = tmp_path / "out"
        assert run([inputs.get(a, a) for a in argv] + ["--out", out]) == 0
        data = (out / name).read_bytes()
        assert b"\r" not in data
        lines = data.decode().split("\n")
        assert lines[0] == header and len(lines) > 2 and lines[-1] == ""


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



def test_readme_chain_runs_verbatim(tmp_path, monkeypatch):
    # the README's block of nfsense commands, each line as written there, its
    # out/ under tmp_path
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, re.M | re.S)
    chain = next(b.splitlines() for b in blocks if b.startswith("nfsense "))
    monkeypatch.chdir(tmp_path)
    for line in chain:
        argv = shlex.split(line)
        assert argv[0] == "nfsense" and main(argv[1:]) == 0, line
    assert (tmp_path / "out" / "tr" / "model.tcn").exists()
