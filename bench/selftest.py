"""Benchmark self-test at smoke size.

    python3 bench/selftest.py

Runs every workload once untraced and once traced in its own process and
checks that each metric named in BENCHMARK.json appears with its unit; feeds
deliberately corrupted outputs to the checkers and expects them counted as
failures; and checks that the runner refuses to report a result from a
directory holding only the benchmark files (no sources).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_DIR = os.path.join(ROOT, ".bench_run")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def scratch_dir() -> str:
    os.makedirs(RUN_DIR, exist_ok=True)
    return tempfile.mkdtemp(dir=RUN_DIR, prefix="selftest-")


def run_bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_problems(spec: dict, proc, trace: int) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metric names/units differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
    values = [v.get("value") for v in result.get("metrics", {}).values()]
    if not all(isinstance(v, (int, float)) for v in values):
        problems.append("a metric value is not a number")
    return problems


def corrupted_outputs_are_failures() -> list[str]:
    """Corrupt a spectrogram and a raster after a real pass; the checks must flag them."""
    sys.path.insert(0, BENCH)
    import run
    import numpy as np
    from workloads import Ops, WORKLOADS

    nf = run.import_nfsense()
    problems = []
    workdir = scratch_dir()
    try:
        for name, corrupt in (("sense", _corrupt_spectrogram),
                              ("analysis", _corrupt_raster)):
            wl = WORKLOADS[name](nf, 1, True, workdir)
            wl.setup()
            ops = Ops()
            wl.run_pass(ops)
            if any(wl.check(ops).values()):
                problems.append(f"{name}: clean outputs already fail their checks")
            key = corrupt(ops, np)
            if not wl.check(ops).get(key):
                problems.append(f"{name}: corrupted {key} was not flagged")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def _corrupt_spectrogram(ops, np) -> str:
    key = next(iter(ops.outputs))
    spec = ops.outputs[key].spec_hold
    spec.data[0, ~spec.no_data_cols] = 1.5   # leaves [0, 1]
    return key


def _corrupt_raster(ops, np) -> str:
    fmap = ops.outputs["vir_map"]
    finite = np.isfinite(fmap.vir_subject)
    fmap.vir_subject[finite] *= 1.0 + 1e-6   # every cell off its scalar oracle
    return "vir_map"


def bare_directory_fails() -> list[str]:
    """Only BENCHMARK.json and bench/: the runner must exit non-zero without a result."""
    tmp = scratch_dir()
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(tmp, "sense", 0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or '"metrics"' in last:
        return [f"exit {proc.returncode} with output {last[:200]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = 0
    cases = [(f"{w['name']} trace={t}",
              lambda w=w["name"], t=t: result_problems(spec, run_bench(ROOT, w, t), t))
             for w in spec["workloads"] for t in (0, 1)]
    cases += [("corrupted outputs are counted", corrupted_outputs_are_failures),
              ("bare benchmark directory fails", bare_directory_fails)]
    for label, case in cases:
        problems = case()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}" +
              "".join(f"\n    {p}" for p in problems), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
