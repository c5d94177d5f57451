"""Span tracer for the benchmark's traced runs.

Timing wrappers are installed on the module attributes that callers look up
(``sra.resample``, ``coordinator.vir``, ...) and removed again afterwards;
nothing inside ``src/`` is edited.  Each wrapped call records one span
(name, start, end, parent, item id) in flat in-memory arrays; self time is
derived afterwards as span duration minus the part covered by child spans.
Hooks run after a call returns and add boundary counts (bytes, frames,
samples) measured where the work happens.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

# Span phases: set-up work, timed passes, anything else (never reported).
SETUP, PASS, OTHER = 0, 1, 2


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.item = array("q")
        self.phase_of = array("b")
        self._stack: list[int] = []
        self.phase = OTHER
        self.item_id = -1
        # counts[(phase, key)] -> number; filled by hooks and count-only wrappers
        self.counts: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []
        self._targets: list[tuple[object, str, Callable]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.item.append(self.item_id)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, phase: int, item_id: int):
        """Root span of one set-up or one pass; its self time is unattributed."""
        self.phase, self.item_id = phase, item_id
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)
            self.phase, self.item_id = OTHER, -1

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.phase, key)] += value

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, key: str, fn: Callable) -> Callable:
        """Count calls without a span (for tight inner loops such as series terms)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.phase, key)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def add(self, module, attr: str, name: str, hook: Callable | None = None,
            count_only: bool = False) -> None:
        """Register a module attribute to wrap; the same name may sit in several modules."""
        fn = getattr(module, attr)
        wrapper = self.wrap_count(name, fn) if count_only else self.wrap(name, fn, hook)
        self._targets.append((module, attr, wrapper))

    def install(self) -> None:
        for module, attr, wrapper in self._targets:
            self._installed.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run checks and oracles with the original functions in place."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "item": np.frombuffer(self.item, dtype=np.int64).copy(),
            "phase": np.frombuffer(self.phase_of, dtype=np.int8).copy(),
        }

    def per_name(self) -> dict[tuple[int, str], dict[str, float]]:
        """(phase, name) -> total seconds, self seconds and call count."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        self_s = dur - covered
        out: dict[tuple[int, str], dict[str, float]] = {}
        for phase in (SETUP, PASS):
            sel = a["phase"] == phase
            n_names = len(self.names)
            total = np.bincount(a["name"][sel], weights=dur[sel], minlength=n_names)
            own = np.bincount(a["name"][sel], weights=self_s[sel], minlength=n_names)
            calls = np.bincount(a["name"][sel], minlength=n_names)
            for nid, name in enumerate(self.names):
                if calls[nid]:
                    out[(phase, name)] = {"total_s": float(total[nid]),
                                          "self_s": float(own[nid]),
                                          "calls": int(calls[nid])}
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def calibrate(n: int = 20000) -> tuple[float, float]:
    """Seconds a span wrapper and a count-only wrapper add to one call (best of 3)."""
    tracer = Tracer()

    def noop():
        return None

    def per_call(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - t0) / n

    span_fn = tracer.wrap("noop", noop)
    count_fn = tracer.wrap_count("noop", noop)
    span_cost = count_cost = float("inf")
    for _ in range(3):
        bare = per_call(noop)
        span_cost = min(span_cost, per_call(span_fn) - bare)
        count_cost = min(count_cost, per_call(count_fn) - bare)
    return max(span_cost, 0.0), max(count_cost, 0.0)
