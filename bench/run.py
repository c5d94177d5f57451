"""nfsense benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; nfsense is imported from its
``src/`` directory.  One process runs one workload: set-up (repeated, the
median is reported), then a closed loop of passes up to the pass boundary
nearest to ``--seconds`` (at least two passes, so their output digests can be
compared), then the README-chain probe.  With ``--trace 1`` the layer
functions are wrapped and per-layer figures are reported instead of the
end-to-end ones.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
the line before it is a detailed record (environment, item counts,
accuracy, digests, failures, README-chain probe).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".bench_run")
BLAS_THREADS = 1          # closed loop in one process: no BLAS worker threads
MAX_PASSES = 1000
MODULES = ("scene", "traffic", "sra", "metrics", "tcn", "geometry", "capacity",
           "bfi", "coordinator", "config", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description="nfsense benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every workload (self-test size)")
    return p.parse_args(argv)


def import_nfsense() -> dict:
    """Import nfsense from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nfsense", "__init__.py")):
        raise SystemExit(f"error: no nfsense sources under {src}")
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"nfsense.{name}") for name in MODULES}
    origin = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if origin != os.path.join(src, "nfsense"):
        raise SystemExit(f"error: nfsense was imported from {origin}, not {src}")
    return mods


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise SystemExit(f"error: {path} not found")
    with open(path) as fh:
        return json.load(fh)


def environment(np, seed: int) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "os_threads": threads, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_sha": git_sha(), "src_sha256": src_digest(), "seed": seed}


def git_sha():
    """HEAD of the checkout when it is a git work tree (read without running git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next(line.split()[0] for line in fh if line.strip().endswith(ref))
    except (OSError, StopIteration):
        return None


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "nfsense")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def op_groups(seconds: dict[str, float]) -> dict[str, float]:
    """Host seconds of one pass summed by op kind: the key up to its first
    ``/`` with trailing digits dropped (``dense/ue0`` -> ``dense``, ``bfi7`` -> ``bfi``)."""
    out: dict[str, float] = {}
    for key, sec in seconds.items():
        group = key.split("/")[0].rstrip("0123456789")
        out[group] = out.get(group, 0.0) + sec
    return out


def readme_probe(nf, workdir: str, run_cli) -> dict:
    """The README's example chain verbatim (output paths aside), outside all timing."""
    sim, ds = os.path.join(workdir, "probe", "sim"), os.path.join(workdir, "probe", "ds")
    out = {}
    for step, argv in (("simulate", ["simulate", "--duration", "60", "--traffic-kind",
                                     "dl-csi", "--seed", "1", "--out", sim]),
                       ("build-dataset", ["build-dataset", "--csi",
                                          os.path.join(sim, "csi_ue0.csv"), "--duration",
                                          "60", "--seed", "1", "--out", ds])):
        rc, err = run_cli(nf, *argv)
        out[step] = {"exit": rc, "stderr": err}
        if rc:
            break
    out["exit_code"] = next((s["exit"] for s in out.values() if s["exit"]), 0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    spec = load_spec()
    nf = import_nfsense()
    import numpy as np

    import layers
    from tracer import PASS, SETUP
    from workloads import WORKLOADS, Ops, run_cli
    import_s = time.perf_counter() - T_START
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")

    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        wl = WORKLOADS[args.workload](nf, args.seed, args.smoke, workdir)
        tracer = layers.make_tracer(nf) if args.trace else None

        def root(name, phase, item):
            return tracer.root(name, phase, item) if tracer else contextlib.nullcontext()

        def paused():
            return tracer.paused() if tracer else contextlib.nullcontext()

        if tracer:
            tracer.install()
        setup_s = []
        for k in range(wl.n_setups):
            t0 = time.perf_counter()
            with root("setup", SETUP, k):
                wl.setup()
            setup_s.append(time.perf_counter() - t0)

        pass_s, work, main_s, group_s = [], 0.0, [], []
        attempted = len(wl.setup_ops.outputs) + len(wl.setup_ops.errors)
        failures: dict[str, list[str]] = {k: [v] for k, v in wl.setup_ops.errors.items()}
        for key, problems in wl.setup_problems().items():
            if problems:
                failures[key] = problems
        failed = len(failures)
        first_digests, problems0, summary = None, {}, {}
        t_loop = time.perf_counter()
        while True:
            ops = Ops()
            t0 = time.perf_counter()
            with root("pass", PASS, len(pass_s)):
                units, main_key = wl.run_pass(ops)
            dt = time.perf_counter() - t0
            wl.collect(ops)
            pass_s.append(dt)
            work += units
            main_s.append(ops.seconds[main_key] if main_key else dt)
            group_s.append(op_groups(ops.seconds))
            digests = ops.digests()
            if first_digests is None:
                first_digests = digests
                with paused():
                    problems0 = {k: v for k, v in wl.check(ops).items() if v}
                    summary = wl.summary(ops)
            bad = set(ops.errors) | set(problems0) | {
                k for k, d in digests.items() if d != first_digests.get(k)}
            attempted += len(digests)
            failed += len(bad)
            for key in bad:
                if key in ops.errors:
                    failures.setdefault(key, [ops.errors[key]])
                else:
                    failures.setdefault(key, problems0.get(key, ["output differs from pass 0"]))
            # stop at the pass boundary nearest to --seconds
            elapsed = time.perf_counter() - t_loop
            if len(pass_s) >= 2 and (elapsed + statistics.median(pass_s) / 2 > args.seconds
                                     or len(pass_s) >= MAX_PASSES):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        values = {"setup_s": import_s + statistics.median(setup_s),
                  "wall_s": statistics.median(pass_s),
                  "items_per_s": work / sum(main_s),
                  "peak_rss_mb": peak_rss_mb}
        if tracer:
            tracer.uninstall()
            values = layers.derive(tracer, wl.n_setups, len(pass_s))
            values.update(wl.traced_extras())
            values.update({k: v for k, v in summary.items() if "." in k})
            tracer.save(os.path.join(RUN_DIR, f"{args.workload}.spans.npz"))
        probe = readme_probe(nf, workdir, run_cli)
        values["cli.readme_chain.exit_code"] = probe["exit_code"]

        section = "per_layer" if args.trace else "end_to_end"
        metrics = {}
        for m in spec[section]:
            v = float(values.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": v if math.isfinite(v) else 0.0, "unit": m["unit"]}
        record = {
            "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
            "env": environment(np, args.seed), "import_s": import_s,
            "setup_runs_s": setup_s, "pass_s": pass_s,
            "median_op_group_s": {g: statistics.median(p.get(g, 0.0) for p in group_s)
                                  for g in group_s[0]},
            "items_per_s_unit_of_work": wl.unit_of_work,
            "summary": summary,
            "digest": _combined(first_digests),
            "failures": dict(list(failures.items())[:20]),
            "readme_chain": probe,
            "unreported": sorted(k for k in values if k not in metrics),
        }
        print(json.dumps({"record": record}, default=str))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _combined(digests) -> str:
    import checks
    return checks.digest(digests or {})


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(1)
