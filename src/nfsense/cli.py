"""Command-line driver wiring the modules into reproducible experiments.

Every subcommand is deterministic given ``--seed``: outputs are text/CSV
files that diff byte-for-byte across runs.  Execution is serial.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import bfi as bfi_mod
from . import capacity as cap_mod
from . import coordinator as coord_mod
from . import geometry as geo
from . import metrics as met
from . import scene as scene_mod
from . import sra as sra_mod
from . import tcn as tcn_mod
from . import traffic as traffic_mod
from .config import RunConfig, load_config

TRAFFIC_FLAG_TO_KIND = {"ul-csi": "ul_csi", "dl-csi": "dl_csi", "ul-bfi": "ul_bfi"}


def _load_run_config(args) -> RunConfig:
    """The config file, then every ``--set`` and alias flag in command-line order."""
    cfg = load_config(args.config) if args.config else RunConfig()
    for key, value, flag in (args.set or []):
        cfg.set(key, value, source=flag)
    return cfg


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SystemExit(f"expected start:stop:step, got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def _key_value(text: str) -> tuple[str, str, str]:
    """argparse type of ``--set``: KEY=VALUE split at the first ``=``."""
    key, eq, value = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value, "--set"


def _set_alias(p: argparse.ArgumentParser, flag: str, key: str) -> None:
    """Add ``flag VALUE`` as shorthand for ``--set key=VALUE``."""
    p.add_argument(flag, action="append", dest="set", metavar="VALUE",
                   type=lambda text: (key, text, flag), help=f"shorthand for --set {key}=VALUE")


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than ``lo``."""
    def integer(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return int(text)
    return integer


def _parse_point(text: str) -> geo.Point2D:
    x, y = (float(v) for v in text.split(","))
    return geo.Point2D(x, y)


# ---------------------------------------------------------------------------
# subcommands

def cmd_feasible_map(args) -> int:
    cfg = _load_run_config(args)
    radio = cfg.radio()
    ap = _parse_point(args.ap)
    ue = _parse_point(args.ue)
    subject = geo.Mover(_parse_point(args.subject), args.subject_speed)
    extent = tuple(float(v) for v in args.extent.split(":"))
    fmap = geo.vir_map(radio, ap, ue, subject, extent, args.resolution, args.beta)
    geo.save_raster(_out_path(args, "vir_subject.txt"), fmap.vir_subject,
                    fmap.x0, fmap.y0, fmap.dx, fmap.dy)
    geo.save_raster(_out_path(args, "vir_interferer.txt"), fmap.vir_interferer,
                    fmap.x0, fmap.y0, fmap.dx, fmap.dy)
    geo.save_raster(_out_path(args, "feasible.txt"), fmap.feasible.astype(float),
                    fmap.x0, fmap.y0, fmap.dx, fmap.dy)
    print(f"feasible cells: {int(fmap.feasible.sum())}/{fmap.feasible.size}")
    return 0


def cmd_capacity(args) -> int:
    cfg = _load_run_config(args)
    radio = cfg.radio()
    beta, delta_r, k = cfg["capacity.beta"], cfg["capacity.delta_r"], cfg["capacity.k"]
    if radio.alpha == 4.0 and k == 2:
        params = cap_mod.DEFAULT_FIT
    else:
        # The shipped coefficients are alpha=4 (K=2) values; refit otherwise.
        p1, p2, p3 = cap_mod.refit_radial(radio.alpha)
        q1, q2, q3 = cap_mod.refit_mirror(radio.alpha, k)
        params = cap_mod.FitParams(p1=p1, p2=p2, p3=p3, q1=q1, q2=q2, q3=q3)
    r_start, r_stop, r_step = _parse_range(args.r)
    rows = cap_mod.capacity_curve(radio, beta, delta_r, r_start, r_stop, r_step,
                                  k=k, params=params)
    if not rows:
        raise ValueError(f"--r {args.r} holds no r above capacity.delta_r = {delta_r:g}")
    cap_mod.write_capacity_csv(rows, _out_path(args, "capacity.csv"))
    best = max(rows, key=lambda row: row.n_max_fit)
    print(f"max n_max_fit: {best.n_max_fit} at r={best.r:.2f} m")
    return 0


def demo_scene(seed: int = 0, noise_std: float = 2e-5) -> scene_mod.Scene:
    """Four users around a central AP, 2 m apart, UEs in the near field.

    Each UE sits 0.15 m from its subject, tangentially to the AP ray: chest
    motion toward the phone then modulates the reflected path length (a UE
    exactly on the AP-subject line would see no phase modulation at all,
    since moving between the path's foci keeps d_as + d_se constant).
    """
    radio = geo.RadioConfig.from_raw_gain(1.0, lambda_m=0.06, alpha=4.0,
                                          eta=1e-6, b=0.0)
    r = 1.41
    rates = (12.0, 15.0, 18.0, 21.0)
    users = []
    for i, angle in enumerate((0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)):
        ux, uy = math.cos(angle), math.sin(angle)
        subject = geo.Point2D(r * ux, r * uy)
        ue = geo.Point2D(r * ux - 0.15 * uy, r * uy + 0.15 * ux)
        holds = ((20.0 + 10.0 * i, 35.0 + 10.0 * i),)
        users.append(scene_mod.SceneUser(
            ue=ue, subject=subject,
            motion=scene_mod.MotionProfile.respiration(rates[i], 0.005, holds)))
    return scene_mod.Scene(ap=geo.Point2D(0.0, 0.0), users=tuple(users),
                           cfg=radio, baseline_observer=geo.Point2D(0.5, 0.0),
                           noise_std=noise_std, seed=seed)


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    if args.scene:
        scn = scene_mod.load_scene(args.scene)
        if args.seed is not None:
            scn = dataclasses.replace(scn, seed=args.seed)
    else:
        scn = demo_scene(seed=args.seed or 0)
    scene_mod.save_scene(scn, _out_path(args, "scene.txt"))

    kind = TRAFFIC_FLAG_TO_KIND[args.traffic_kind]
    duration = args.duration
    for idx, user in enumerate(scn.users):
        if args.uniform_rate:
            n = int(math.floor(duration * args.uniform_rate)) + 1
            times = traffic_mod.SampleTimes(np.arange(n) / args.uniform_rate, duration)
        else:
            model = cfg.traffic(seed=(scn.seed * 1000 + idx))
            model = dataclasses.replace(
                model, kind=kind,
                contention_users=max(model.contention_users, len(scn.users)))
            times = traffic_mod.generate_arrivals(model, duration)
        traffic_mod.save_sample_times(times, _out_path(args, f"times_{user.user_id}.txt"))
        series = scene_mod.render_csi(scn, user.user_id, times.times)
        scene_mod.save_csi_csv(series, _out_path(args, f"csi_{user.user_id}.csv"))
    if scn.baseline_observer is not None:
        n = int(math.floor(duration * cfg["sra.f_rs"])) + 1
        times = np.arange(n) / cfg["sra.f_rs"]
        series = scene_mod.render_baseline(scn, times)
        scene_mod.save_csi_csv(series, _out_path(args, "csi_baseline.csv"))
    print(f"rendered {len(scn.users)} links over {duration:.1f} s")
    return 0


def cmd_build_dataset(args) -> int:
    cfg = _load_run_config(args)
    sra_cfg = cfg.sra()
    # every step that can fail runs before the first file is written
    specs = [sra_mod.process_series(scene_mod.load_csi_csv(path), sra_cfg,
                                    duration=args.duration) for path in args.csi]
    labels = [s for spec in specs for s in sra_mod.extract_label_slices(spec, sra_cfg)]
    width = cfg["dataset.max_label_frames"]
    if width:
        stride = cfg["dataset.label_stride"] or width
        labels = sra_mod.chop_labels(labels, width, stride)
    ds = sra_mod.build_dataset(labels,
                               masks_per_label=cfg["dataset.masks_per_label"],
                               mask_fraction=cfg["mask.fraction"],
                               mean_run_frames=cfg["mask.mean_run_frames"],
                               split_fraction=cfg["dataset.split_fraction"],
                               seed=args.seed or 0)
    for path, spec in zip(args.csi, specs):
        name = os.path.splitext(os.path.basename(path))[0]
        sra_mod.save_spectrogram(spec, _out_path(args, f"spectrogram_{name}.txt"))
    sra_mod.save_dataset(ds, _out_path(args, "dataset"))
    print(f"dataset: {len(ds.train)} train pairs, {len(ds.test)} test pairs "
          f"from {len(labels)} label slices")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    ds = sra_mod.load_dataset(args.dataset)
    advice = (f"{args.dataset} holds {len(ds.train)} train and {len(ds.test)} test pairs; "
              "build it from more label slices: a longer or dense (--uniform-rate 64) "
              "simulate, or more links passed to build-dataset --csi")
    if not ds.train:
        print(f"error: empty train split: {advice}", file=sys.stderr)
        return 1
    if not ds.test:
        print(f"warning: empty test split, so test_mse reads nan: {advice}", file=sys.stderr)
    seed = args.seed or 0
    # float32: the weight file is float32 anyway and training is ~1.85x faster
    model = tcn_mod.TcnModel.initialize(cfg.tcn(seed=seed), dtype=np.float32)
    tcfg = cfg.train(seed=seed)
    model, history = tcn_mod.train(model, ds.train, ds.test, tcfg)
    tcn_mod.save_model(model, _out_path(args, "model.tcn"))
    tcn_mod.write_history_csv(history, _out_path(args, "loss_history.csv"))
    if history:
        print(f"trained {tcfg.epochs} epochs: train mse {history[-1].train_mse:.3e}, "
              f"test mse {history[-1].test_mse:.3e}")
    else:
        print("trained 0 epochs (weights are the seeded initialization)")
    return 0


def cmd_recover(args) -> int:
    cfg = _load_run_config(args)
    model = tcn_mod.load_model(args.model)
    spec = sra_mod.load_spectrogram(args.spectrogram, df_hz=cfg.sra().df_hz)
    recovered = np.clip(tcn_mod.forward(model, spec.data), 0.0, 1.0)
    out = sra_mod.Spectrogram(data=recovered,
                              no_data_cols=np.zeros(spec.n_t, dtype=bool),
                              frame_times=spec.frame_times, df_hz=spec.df_hz)
    sra_mod.save_spectrogram(out, _out_path(args, "recovered.txt"))
    print(f"recovered {spec.n_t} frames")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    rows: list[tuple[str, str]] = []
    df = cfg.sra().df_hz
    band = (args.band_lo, args.band_hi)
    if bool(args.recovered) != bool(args.truth):
        missing = "--truth" if args.recovered else "--recovered"
        raise ValueError(f"{missing} is missing: --recovered and --truth go together")
    if args.recovered:
        rec = sra_mod.load_spectrogram(args.recovered, df_hz=df)
        tru = sra_mod.load_spectrogram(args.truth, df_hz=df)
        rows.append(("recovery_mse", f"{met.recovery_mse(rec, tru):.9e}"))
    for label, path in (("near", args.spectrogram), ("baseline", args.baseline_spectrogram)):
        if not path:
            continue
        spec = sra_mod.load_spectrogram(path, df_hz=df)
        est = met.estimate_rate(spec, band)
        rows.append((f"{label}_rate_bpm", f"{est.bpm:.4f}"))
        rows.append((f"{label}_rate_confidence", f"{est.confidence:.4f}"))
        rows.append((f"{label}_spectral_entropy_bits", f"{met.spectral_entropy(spec):.4f}"))
        if args.true_rate is not None:
            rows.append((f"{label}_rate_error_bpm", f"{abs(est.bpm - args.true_rate):.4f}"))
    if not rows:
        print("error: nothing to evaluate (pass --recovered/--truth or --spectrogram)",
              file=sys.stderr)
        return 1
    with open(_out_path(args, "metrics.csv"), "w") as fh:
        fh.write("metric,value\n")
        for key, value in rows:
            fh.write(f"{key},{value}\n")
    for key, value in rows:
        print(f"{key}={value}")
    return 0


def cmd_bfi_demo(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence((args.seed or 0, 0xBF1)))
    h0 = bfi_mod.ChannelMatrix(rng.standard_normal((args.n_rx, args.n_tx))
                               + 1j * rng.standard_normal((args.n_rx, args.n_tx)))
    lam = args.lambda_m
    motions = []
    if args.sweep == "radial":
        # Subject-UE radial motion: both path legs stretch, direction fixed.
        for s in np.linspace(0.0, 2.0 * lam, args.steps):
            motions.append(bfi_mod.MotionUpdate(
                delta_theta=0.0, delta_d_t=float(s),
                delta_d_r=tuple(float(s) for _ in range(args.n_rx)),
                rho=tuple(1.0 for _ in range(args.n_rx)), ell=lam / 2, theta=math.pi / 4))
    else:
        for dth in np.linspace(0.0, args.max_dtheta, args.steps):
            motions.append(bfi_mod.MotionUpdate(
                delta_theta=float(dth), delta_d_t=0.0,
                delta_d_r=tuple(0.0 for _ in range(args.n_rx)),
                rho=tuple(1.0 for _ in range(args.n_rx)), ell=lam / 2, theta=math.pi / 4))
    rows = bfi_mod.bfi_sensitivity_demo(h0, motions, lam,
                                        b_phi=args.bits_phi, b_psi=args.bits_psi)
    with open(_out_path(args, "bfi_sensitivity.csv"), "w") as fh:
        fh.write("step,csi_phase_change_rad,bfi_frobenius_change\n")
        for i, (csi, change) in enumerate(rows):
            fh.write(f"{i},{csi:.9e},{change:.9e}\n")
    print(f"{args.sweep} sweep: max CSI phase change {max(r[0] for r in rows):.3f} rad, "
          f"max BFI change {max(r[1] for r in rows):.3e}")
    return 0


_DEFAULT_SCRIPT = """user_id,x,y,motion_type,strategy,action
u0,1.41,0.0,respiration,ul_csi,register
u1,0.0,1.41,respiration,dl_csi,register
u2,-1.41,0.0,gesture,ul_bfi,register
u3,0.0,-1.41,activity,ul_csi,register
u4,1.43,0.12,respiration,ul_csi,register
u1,0.0,1.41,respiration,dl_csi,deregister
u5,0.0,1.41,respiration,ul_csi,register
"""


def cmd_register_sim(args) -> int:
    cfg = _load_run_config(args)
    if args.arrivals:
        with open(args.arrivals) as fh:
            lines = fh.read().strip().splitlines()
    else:
        lines = _DEFAULT_SCRIPT.strip().splitlines()
    registry = coord_mod.Registry(ap=geo.Point2D(0.0, 0.0), cfg=cfg.radio(),
                                  beta=args.beta, delta_r=args.delta_r)
    log_rows = []
    for step, line in enumerate(lines[1:]):
        user_id, x, y, motion, strategy, action = (v.strip() for v in line.split(","))
        if action == "register":
            reg = coord_mod.Registration(user_id=user_id,
                                         position=geo.Point2D(float(x), float(y)),
                                         motion_type=motion, strategy=strategy)
            decision = registry.register(reg)
            log_rows.append((step, user_id, action, int(decision.admitted),
                             decision.reason or "-", f"{decision.f_cut_hz:.1f}"))
        elif action == "deregister":
            registry.deregister(user_id)
            log_rows.append((step, user_id, action, 1, "-", "0.0"))
        else:
            print(f"error: unknown action {action!r} at step {step}", file=sys.stderr)
            return 1
    with open(_out_path(args, "admission_log.csv"), "w") as fh:
        fh.write("step,user_id,action,admitted,reason,f_cut_hz\n")
        for row in log_rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    registry.dump_csv(_out_path(args, "registry.csv"))
    admitted = sum(1 for r in log_rows if r[2] == "register" and r[3])
    print(f"{admitted} of {sum(1 for r in log_rows if r[2] == 'register')} "
          f"registrations admitted")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfsense",
        description="Near-field Wi-Fi multi-person sensing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       type=_key_value,
                       help="override one config key")

    p = sub.add_parser("feasible-map", help="VIR feasibility raster around one subject")
    common(p)
    p.add_argument("--beta", type=float, default=50.0)
    p.add_argument("--ap", default="0,0")
    p.add_argument("--ue", default="3.1,0")
    p.add_argument("--subject", default="3.0,0")
    p.add_argument("--subject-speed", type=float, default=1.0)
    p.add_argument("--extent", default="-4:-4:4.5:4", metavar="X0:Y0:X1:Y1")
    p.add_argument("--resolution", type=float, default=0.05)
    p.set_defaults(func=cmd_feasible_map)

    p = sub.add_parser("capacity", help="N_max / delta-d_min capacity sweep")
    common(p)
    for flag, key in (("--alpha", "radio.alpha"), ("--beta", "capacity.beta"),
                      ("--delta-r", "capacity.delta_r"), ("--k", "capacity.k")):
        _set_alias(p, flag, key)
    p.add_argument("--r", default="0.3:4.0:0.01", metavar="START:STOP:STEP")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("simulate", help="render per-link CSI under bursty traffic")
    common(p)
    p.add_argument("--scene", help="scene description file (default: built-in 4-user demo)")
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--traffic-kind", choices=sorted(TRAFFIC_FLAG_TO_KIND), default="dl-csi")
    p.add_argument("--uniform-rate", type=float, default=None,
                   help="bypass traffic and sample uniformly at this rate (Hz)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("build-dataset", help="pipeline CSI files into training pairs")
    common(p)
    p.add_argument("--csi", nargs="+", required=True, help="CSI CSV files")
    p.add_argument("--duration", type=float, default=None)
    _set_alias(p, "--max-label-frames", "dataset.max_label_frames")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train the recovery autoencoder")
    common(p)
    p.add_argument("--dataset", required=True, help="dataset directory (train/, test/)")
    _set_alias(p, "--epochs", "train.epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("recover", help="run a frozen model over a sparse spectrogram")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--spectrogram", required=True)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("eval", help="recovery/rate/entropy metrics")
    common(p)
    p.add_argument("--recovered")
    p.add_argument("--truth")
    p.add_argument("--spectrogram", help="near-field spectrogram")
    p.add_argument("--baseline-spectrogram")
    p.add_argument("--true-rate", type=float, default=None, help="actual rate (bpm)")
    p.add_argument("--band-lo", type=float, default=0.1)
    p.add_argument("--band-hi", type=float, default=0.7)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bfi-demo", help="BFI vs CSI motion-sensitivity sweep")
    common(p)
    p.add_argument("--n-tx", type=int, default=3)
    p.add_argument("--n-rx", type=int, default=2)
    p.add_argument("--sweep", choices=("radial", "angular"), default="radial")
    p.add_argument("--steps", type=_int_at_least(1), default=64)
    p.add_argument("--max-dtheta", type=float, default=0.02)
    p.add_argument("--lambda-m", type=float, default=0.06)
    p.add_argument("--bits-phi", type=_int_at_least(0), default=0, help="0 = exact angles")
    p.add_argument("--bits-psi", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_bfi_demo)

    p = sub.add_parser("register-sim", help="replay a scripted registration sequence")
    common(p)
    p.add_argument("--arrivals", help="CSV script (default: built-in demo sequence)")
    p.add_argument("--beta", type=float, default=50.0)
    p.add_argument("--delta-r", type=float, default=0.15)
    p.set_defaults(func=cmd_register_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:   # an input that is missing or unreadable, or an unwritable output
        where = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        print(f"error: {where}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
