"""The three benchmark workloads.

Each workload is a closed loop with one caller: ``setup`` builds the inputs
from the seed, ``run_pass`` drives one fixed batch of work through nfsense's
public functions (or ``nfsense.cli.main``), each call starting when the
previous one returns.  ``check`` verifies one pass's outputs with property
and oracle checks; ``summary`` reports accuracy figures and item counts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import shutil
import time

import numpy as np

import checks

TRUE_RATE_BAND_HZ = (0.1, 0.7)
F_RS = 64.0
LAMBDA_M = 0.06


class Ops:
    """Outputs and host seconds of one pass, op by op; an op that raises is
    kept as an error."""

    def __init__(self) -> None:
        self.outputs: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.seconds: dict[str, float] = {}

    def run(self, key: str, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # counted as a failed operation, never fatal
            self.errors[key] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            self.seconds[key] = time.perf_counter() - t0
        self.outputs[key] = out
        return out

    def digests(self) -> dict[str, str]:
        out = {k: checks.digest(v) for k, v in self.outputs.items()}
        out.update({k: "error" for k in self.errors})
        return out


def run_cli(nf, *argv: str) -> tuple[int, str]:
    """``nfsense.cli.main`` with its console output captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = nf["cli"].main(list(argv))
    return rc, err.getvalue().strip()


class Workload:
    name = ""
    unit_of_work = ""
    n_setups = 5

    def __init__(self, nf, seed: int, smoke: bool, workdir: str) -> None:
        self.nf, self.seed, self.smoke, self.workdir = nf, seed, smoke, workdir
        self.setup_ops = Ops()

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, ops: Ops) -> tuple[float, str | None]:
        """Run one pass; return (work units, key of the main op or None for
        the whole pass)."""
        raise NotImplementedError

    def check(self, ops: Ops) -> dict[str, list[str]]:
        raise NotImplementedError

    def collect(self, ops: Ops) -> None:
        """Gather a pass's outputs for digests and checks, after its timing ends."""

    def summary(self, ops: Ops) -> dict[str, float]:
        return {}

    def setup_problems(self) -> dict[str, list[str]]:
        return {}

    def traced_extras(self) -> dict[str, float]:
        """Extra per-layer figures measured after the timed phase of a traced run."""
        return {}


# ---------------------------------------------------------------------------
# sensing: dense and bursty links of one demo scene

@dataclasses.dataclass
class DenseOut:
    spec_eval: object
    spec_hold: object
    rate: object
    entropy_bits: float
    band_energy: np.ndarray


@dataclasses.dataclass
class BurstyOut:
    kind: str
    times: object
    spec: object
    labels: list
    rate: object


class Sense(Workload):
    """One pass takes every link of the seed's demo scene through the sensing
    chain twice over: densely, on a uniform 64 Hz grid (one long Hampel slice
    per link), and under each bursty traffic kind (many short slices)."""

    name = "sense"
    unit_of_work = "CSI seconds"
    KINDS = ("dl_csi", "ul_csi", "ul_bfi")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.duration = 30.0 if self.smoke else 120.0

    def setup(self) -> None:
        nf = self.nf
        sra = nf["sra"]
        self.scene = nf["cli"].demo_scene(self.seed)
        self.grid = np.arange(int(self.duration * F_RS) + 1) / F_RS
        self.eval_cfg = sra.SraConfig(fft_len=1024, hop=64)   # 16 s windows
        self.hold_cfg = sra.SraConfig()                       # 4 s windows
        base = nf["config"].RunConfig()
        users = self.scene.users
        # contention equals the user count, as `nfsense simulate` sets it
        self.bursty = [
            (user.user_id, dataclasses.replace(
                base.traffic(seed=self.scene.seed * 1000 + idx), kind=kind,
                contention_users=len(users)))
            for idx, user in enumerate(users) for kind in self.KINDS]

    def _dense_links(self) -> list[str]:
        return self.scene.link_ids() + ["baseline"]

    def _dense(self, link: str) -> DenseOut:
        nf = self.nf
        series = nf["scene"].render_csi(self.scene, link, self.grid)
        spec_eval = nf["sra"].process_series(series, self.eval_cfg, self.duration)
        spec_hold = nf["sra"].process_series(series, self.hold_cfg, self.duration)
        return DenseOut(spec_eval=spec_eval, spec_hold=spec_hold,
                        rate=nf["metrics"].estimate_rate(spec_eval, TRUE_RATE_BAND_HZ),
                        entropy_bits=nf["metrics"].spectral_entropy(spec_eval),
                        band_energy=nf["metrics"].band_energy(spec_hold, TRUE_RATE_BAND_HZ))

    def _bursty(self, user_id: str, model) -> BurstyOut:
        nf = self.nf
        times = nf["traffic"].generate_arrivals(model, self.duration)
        series = nf["scene"].render_csi(self.scene, user_id, times.times)
        spec = nf["sra"].process_series(series, self.hold_cfg, self.duration)
        labels = nf["sra"].extract_label_slices(spec, self.hold_cfg)
        rate = None
        if not spec.no_data_cols.all():
            rate = nf["metrics"].estimate_rate(spec, TRUE_RATE_BAND_HZ)
        return BurstyOut(kind=model.kind, times=times, spec=spec, labels=labels, rate=rate)

    def run_pass(self, ops: Ops):
        links = self._dense_links()
        for link in links:
            ops.run(f"dense/{link}", self._dense, link)
        for user_id, model in self.bursty:
            ops.run(f"{model.kind}/{user_id}", self._bursty, user_id, model)
        return (len(links) + len(self.bursty)) * self.duration, None

    def check(self, ops: Ops) -> dict[str, list[str]]:
        traffic = self.nf["traffic"]
        cap = int(traffic.BFI_RATE_CAP_HZ * traffic.BFI_CAP_WINDOW_S)
        found = {}
        for key, out in ops.outputs.items():
            if isinstance(out, DenseOut):
                p = checks.spectrogram(out.spec_eval) + checks.spectrogram(out.spec_hold)
                p += checks.finite(out.rate.bpm, "rate estimate")
                if not 0.0 <= out.entropy_bits <= math.log2(out.spec_eval.n_f) + 1e-12:
                    p.append(f"spectral entropy {out.entropy_bits} outside [0, log2 N_F]")
                if not np.all(np.isfinite(out.band_energy)) or np.any(out.band_energy < 0):
                    p.append("band energy is negative or non-finite")
            else:
                p = checks.arrivals(out.times.times, self.duration,
                                    cap if out.kind == "ul_bfi" else None,
                                    traffic.max_rate_in_window)
                p += checks.spectrogram(out.spec)
                for lab in out.labels:
                    p += checks.unit_range(lab, "label slice")
                if out.rate is not None:
                    p += checks.finite(out.rate.bpm, "rate estimate")
            found[key] = p
        return found

    def summary(self, ops: Ops) -> dict[str, float]:
        dense = [ops.outputs.get(f"dense/{link}") for link in self._dense_links()]
        bursty = [o for o in ops.outputs.values() if isinstance(o, BurstyOut)]
        err = gap = math.nan
        if all(o is not None for o in dense):
            err = float(np.median([abs(o.rate.bpm - user.motion.rate_bpm)
                                   for user, o in zip(self.scene.users, dense)]))
            gap = dense[-1].entropy_bits - float(np.mean([o.entropy_bits for o in dense[:-1]]))
        frames = sum(o.spec.n_t for o in bursty)
        return {"metrics.rate_err_bpm": err, "metrics.entropy_gap_bits": gap,
                "dense_links": len(dense), "bursty_links": len(self.bursty),
                "bursty_samples": sum(len(o.times) for o in bursty),
                "bursty_no_data_frac": sum(int(o.spec.no_data_cols.sum())
                                           for o in bursty) / max(frames, 1),
                "bursty_all_no_data_links": sum(bool(o.spec.no_data_cols.all())
                                                for o in bursty),
                "bursty_label_slices": sum(len(o.labels) for o in bursty)}


# ---------------------------------------------------------------------------
# recovery: the documented CLI chain

class CliError(RuntimeError):
    pass


class TrainRecover(Workload):
    name = "train_recover"
    unit_of_work = "training pair-epochs"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.duration = 60.0 if self.smoke else 120.0
        self.epochs = 1 if self.smoke else 8
        self.n_setups = 2 if self.smoke else 3
        self.links = [f"csi_ue{i}" for i in range(4)]
        self.setup_dirs: list[str] = []

    def cli(self, *argv: str) -> None:
        """Run one subcommand; a non-zero exit raises, so the op counts as failed."""
        rc, err = run_cli(self.nf, *argv)
        if rc != 0:
            raise CliError(f"exit {rc}: {err}")

    def setup(self) -> None:
        k = len(self.setup_dirs)
        root = os.path.join(self.workdir, f"setup{k}")
        self.setup_dirs.append(root)
        sim, self.ds = os.path.join(root, "sim"), os.path.join(root, "ds")
        dur, seed = f"{self.duration:g}", str(self.seed)
        self.setup_ops.run(f"simulate#{k}", self.cli, "simulate", "--duration", dur,
                           "--uniform-rate", "64", "--seed", seed, "--out", sim)
        csvs = [os.path.join(sim, f"{link}.csv") for link in self.links]
        self.setup_ops.run(f"build-dataset#{k}", self.cli, "build-dataset", "--csi", *csvs,
                           "--duration", dur, "--seed", seed, "--out", self.ds)
        train_dir = os.path.join(self.ds, "dataset", "train")
        self.pairs = (sum(f.endswith(".x") for f in os.listdir(train_dir))
                      if os.path.isdir(train_dir) else 0)

    def setup_problems(self) -> dict[str, list[str]]:
        """Every set-up must produce the same files byte for byte."""
        digests = [checks.digest(_tree_contents(d)) for d in self.setup_dirs]
        return {f"setup#{k}": ["set-up output differs from the first set-up"]
                for k, d in enumerate(digests) if d != digests[0]}

    def run_pass(self, ops: Ops):
        w = os.path.join(self.workdir, "pass")
        seed = str(self.seed)
        model = os.path.join(w, "tr", "model.tcn")
        shutil.rmtree(w, ignore_errors=True)
        ops.run("train", self.cli, "train", "--dataset", os.path.join(self.ds, "dataset"),
                "--epochs", str(self.epochs), "--seed", seed, "--out", os.path.join(w, "tr"))
        for link in self.links:
            spec = os.path.join(self.ds, f"spectrogram_{link}.txt")
            rec = os.path.join(w, f"rec_{link}")
            ops.run(f"recover/{link}", self.cli, "recover", "--model", model,
                    "--spectrogram", spec, "--out", rec)
            ops.run(f"eval/{link}", self.cli, "eval", "--recovered",
                    os.path.join(rec, "recovered.txt"), "--truth", spec,
                    "--out", os.path.join(w, f"eval_{link}"))
        return self.pairs * self.epochs, "train"

    def collect(self, ops: Ops) -> None:
        # outputs are files: keep their bytes for the digest and the checks
        w = os.path.join(self.workdir, "pass")
        for key in list(ops.outputs):
            ops.outputs[key] = _tree_contents(self._out_dir(w, key))

    @staticmethod
    def _out_dir(w: str, key: str) -> str:
        step, _, link = key.partition("/")
        return os.path.join(w, {"train": "tr", "recover": f"rec_{link}",
                                "eval": f"eval_{link}"}[step])

    def check(self, ops: Ops) -> dict[str, list[str]]:
        found = {}
        for key, files in ops.outputs.items():
            p = []
            if key == "train":
                rows = _csv_rows(files.get("loss_history.csv", b""))
                if len(rows) != self.epochs or not all(
                        math.isfinite(float(v)) for r in rows for v in r.values()):
                    p.append("loss_history.csv lacks an epoch or holds non-finite losses")
                if not files.get("model.tcn", b"").startswith(b"TCNAE1\n"):
                    p.append("model.tcn lacks its magic header")
            elif key.startswith("recover/"):
                data = _spectrogram_values(files.get("recovered.txt", b""))
                p += checks.unit_range(data, "recovered.txt") if data is not None \
                    else ["recovered.txt is unreadable"]
            else:
                rows = {r["metric"]: r["value"] for r in _csv_rows(files.get("metrics.csv", b""))}
                mse = float(rows.get("recovery_mse", "nan"))
                if not (math.isfinite(mse) and mse >= 0.0):
                    p.append(f"recovery_mse {mse} is not a finite non-negative number")
            found[key] = p
        return found

    def summary(self, ops: Ops) -> dict[str, float]:
        rows = _csv_rows(ops.outputs.get("train", {}).get("loss_history.csv", b""))
        return {"tcn.test_mse": float(rows[-1]["test_mse"]) if rows else math.nan,
                "train_pairs": self.pairs, "epochs": self.epochs}

    def traced_extras(self) -> dict[str, float]:
        """Settle the float64/float32 training-time ratio on this dataset."""
        nf = self.nf
        ds = nf["sra"].load_dataset(os.path.join(self.ds, "dataset"))
        cfg = nf["config"].RunConfig()
        tcfg = dataclasses.replace(cfg.train(seed=self.seed), epochs=2)
        seconds = {}
        for dtype in (np.float32, np.float64):
            model = nf["tcn"].TcnModel.initialize(cfg.tcn(seed=self.seed), dtype=dtype)
            t0 = time.perf_counter()
            nf["tcn"].train(model, ds.train, ds.test, tcfg)
            seconds[dtype] = time.perf_counter() - t0
        return {"tcn.f64_over_f32": seconds[np.float64] / seconds[np.float32]}


def _tree_contents(root: str) -> dict[str, bytes]:
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _csv_rows(blob: bytes) -> list[dict[str, str]]:
    lines = blob.decode().strip().splitlines()
    if not lines:
        return []
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def _spectrogram_values(blob: bytes):
    """Data rows of a spectrogram text file (header, N_F rows, flag row)."""
    lines = blob.decode().strip().splitlines()
    if len(lines) < 3:
        return None
    n_f = int(lines[0].split()[0])
    return np.array([line.split() for line in lines[1:1 + n_f]], dtype=float)


# ---------------------------------------------------------------------------
# analysis: geometry, capacity, BFI codec, registration

@dataclasses.dataclass
class BfiOut:
    n_cols: int
    predicted: np.ndarray
    v: dict


class Analysis(Workload):
    name = "analysis"
    unit_of_work = "vir_map cells"
    BETA = 50.0

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.resolution = 0.2 if self.smoke else 0.04

    def setup(self) -> None:
        nf = self.nf
        geo, bfi = nf["geometry"], nf["bfi"]
        self.radio = nf["config"].RunConfig().radio()
        # the `nfsense feasible-map` defaults
        self.ap, self.ue = geo.Point2D(0.0, 0.0), geo.Point2D(3.1, 0.0)
        self.subject = geo.Mover(geo.Point2D(3.0, 0.0), 1.0)
        self.extent = (-4.0, -4.0, 4.5, 4.0)

        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0xC0)))
        coord = nf["coordinator"]
        self.events = []
        for k in range(12 if self.smoke else 48):
            if rng.random() < 0.25:
                self.events.append(("deregister", float(rng.random())))
                continue
            r, ang = rng.uniform(0.6, 3.5), rng.uniform(0.0, 2.0 * math.pi)
            self.events.append(("register", coord.Registration(
                user_id=f"u{k}", position=geo.Point2D(r * math.cos(ang), r * math.sin(ang)),
                motion_type=str(rng.choice(coord.MOTION_TYPES)),
                strategy=str(rng.choice(nf["traffic"].KINDS)))))

        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0xBF1)))
        self.channels = []
        shapes = [(2, 3)] * (4 if self.smoke else 16) + [(4, 8)] * (2 if self.smoke else 6)
        for n_rx, n_tx in shapes:
            while True:
                h = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
                if np.min(np.abs(np.diff(np.linalg.svd(h, compute_uv=False)))) > 1e-3:
                    break
            step = float(rng.uniform(0.0, 2.0 * LAMBDA_M))
            angular = bfi.MotionUpdate(
                delta_theta=float(rng.uniform(0.005, 0.05)), delta_d_t=0.0,
                delta_d_r=(0.0,) * n_rx, rho=(1.0,) * n_rx, ell=LAMBDA_M / 2,
                theta=float(rng.uniform(0.3, 1.2)))
            radial = bfi.MotionUpdate(delta_theta=0.0, delta_d_t=step,
                                      delta_d_r=(step,) * n_rx, rho=(1.0,) * n_rx)
            self.channels.append((bfi.ChannelMatrix(h), angular, radial))

    def _registry(self):
        nf = self.nf
        registry = nf["coordinator"].Registry(ap=self.ap, cfg=self.radio, beta=self.BETA,
                                              delta_r=0.15)
        decisions, snapshots = [], []
        for action, arg in self.events:
            if action == "register":
                decision = registry.register(arg)
                decisions.append(decision)
                if decision.admitted:
                    snapshots.append(tuple(registry.members.values()))
            elif registry.members:
                members = sorted(registry.members)
                registry.deregister(members[int(arg * len(members))])
        return decisions, snapshots

    def _bfi(self, h, angular, radial) -> BfiOut:
        bfi = self.nf["bfi"]
        v = {}
        for label, hh in (("v0", h), ("angular", bfi.apply_motion(h, angular, LAMBDA_M)),
                          ("radial", bfi.apply_motion(h, radial, LAMBDA_M))):
            v[label] = bfi.reconstructed_v(hh).v
            v[label + "_q"] = bfi.reconstructed_v(hh, 6, 4).v
        return BfiOut(n_cols=min(h.n_rx, h.n_tx), v=v,
                      predicted=bfi.predicted_v_change(h.n_tx, angular, LAMBDA_M))

    def run_pass(self, ops: Ops):
        nf = self.nf
        fmap = ops.run("vir_map", nf["geometry"].vir_map, self.radio, self.ap, self.ue,
                       self.subject, self.extent, self.resolution, self.BETA)
        cap = nf["capacity"]
        ops.run("capacity_curve", cap.capacity_curve, self.radio, self.BETA, 0.1,
                0.3, 4.0, 0.01, 2, cap.DEFAULT_FIT)
        ops.run("registry", self._registry)
        for j, (h, angular, radial) in enumerate(self.channels):
            ops.run(f"bfi{j}", self._bfi, h, angular, radial)
        return (fmap.nx * fmap.ny if fmap is not None else 0), "vir_map"

    def _vir_oracle(self, fmap):
        geo = self.nf["geometry"]
        delta_i = self.subject.position.distance(self.ue)

        def oracle(row: int, col: int):
            cell = fmap.cell_center(row, col)
            interferer = geo.Mover(cell, self.subject.intensity)
            d = self.ap.distance(cell)
            cell_ue = geo.Point2D(cell.x + delta_i * (cell.x - self.ap.x) / d,
                                  cell.y + delta_i * (cell.y - self.ap.y) / d)
            return (geo.vir(self.radio, self.ap, self.ue, self.subject, [interferer]),
                    geo.vir(self.radio, self.ap, cell_ue, interferer, [self.subject]))
        return oracle

    def check(self, ops: Ops) -> dict[str, list[str]]:
        nf = self.nf
        found = {}
        fmap = ops.outputs.get("vir_map")
        if fmap is not None:
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x5A)))
            cells = [(int(rng.integers(fmap.ny)), int(rng.integers(fmap.nx)))
                     for _ in range(64)]
            cells = [(r, c) for r, c in cells if math.isfinite(fmap.vir_subject[r, c])]
            found["vir_map"] = checks.vir_cells(fmap, cells, self._vir_oracle(fmap), self.BETA)
        rows = ops.outputs.get("capacity_curve")
        if rows is not None:
            found["capacity_curve"] = [f"r={row.r:.2f}: dd_min_exact {row.dd_min_exact}"
                                       for row in rows
                                       if not (math.isnan(row.dd_min_exact)
                                               or row.dd_min_exact > 0)]
        if "registry" in ops.outputs:
            _, snapshots = ops.outputs["registry"]
            coord = nf["coordinator"]
            min_virs = [coord.Registry(ap=self.ap, cfg=self.radio, beta=self.BETA,
                                       delta_r=0.15,
                                       members={m.user_id: m for m in members}
                                       ).min_pairwise_vir() for members in snapshots]
            found["registry"] = checks.admissions(min_virs, self.BETA)
        for key, out in ops.outputs.items():
            if key.startswith("bfi"):
                p = [msg for v in out.v.values() for msg in checks.unitary(v)]
                p += checks.direction_only(out.v["v0"], out.v["angular"], out.v["radial"],
                                           out.predicted, out.n_cols)
                found[key] = p
        return found

    def summary(self, ops: Ops) -> dict[str, float]:
        fmap = ops.outputs.get("vir_map")
        decisions, snapshots = ops.outputs.get("registry", ([], []))
        return {"cells": fmap.nx * fmap.ny if fmap is not None else 0,
                "feasible_cells": int(fmap.feasible.sum()) if fmap is not None else 0,
                "registrations": len(decisions), "admitted": len(snapshots),
                "bfi_channels": len(self.channels)}


WORKLOADS = {w.name: w for w in (Sense, TrainRecover, Analysis)}
