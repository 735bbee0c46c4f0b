"""Per-layer timing for the benchmark's traced runs.

A layer is one treepolicy function. Its timing wrapper is installed where the
callers look the function up (``treepolicy.distill.adam_step``, not
``treepolicy.diffmath.adam_step``), so one function called from two modules
can be timed as two layers. A lookup site that no longer exists is skipped,
and a layer with no site left is reported as absent: a refactor that deletes
or moves a function leaves the benchmark runnable.

This module imports only the standard library at load time, so the parent
process can read the layer list without importing treepolicy.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time

# (layer, lookup sites as "module:attribute.path")
LAYERS = (
    ("envsim.HomeEnv.step", ("treepolicy.envsim:HomeEnv.step",)),
    ("teacher.train_step", ("treepolicy.teacher:train_step",)),
    ("teacher.select_action", ("treepolicy.teacher:select_action",)),
    ("diffmath.adam_step@teacher", ("treepolicy.teacher:adam_step",)),
    ("diffmath.adam_step@distill", ("treepolicy.distill:adam_step",)),
    ("diffmath.dense_forward", ("treepolicy.teacher:dense_forward",
                                "treepolicy.distill:dense_forward",
                                "treepolicy.evalkit:dense_forward")),
    ("ddt.forward_batch", ("treepolicy.distill:forward_batch",)),
    ("ddt.gradients_batch", ("treepolicy.distill:gradients_batch",)),
    ("ddt.crispify", ("treepolicy.distill:crispify",)),
    ("ddt.crisp_predict", ("treepolicy.distill:crisp_predict",
                           "treepolicy.evalkit:crisp_predict")),
    ("distill.train_student", ("treepolicy.distill:train_student",)),
    ("distill.build_dataset", ("treepolicy.distill:build_dataset",)),
    ("distill.agreement_rate", ("treepolicy.distill:agreement_rate",)),
    ("evalkit.dp_optimal_cost", ("treepolicy.evalkit:dp_optimal_cost",)),
    ("evalkit.run_episode", ("treepolicy.evalkit:run_episode",)),
    ("evalkit.policy_heatmap", ("treepolicy.evalkit:policy_heatmap",)),
    ("evalkit.count_action_regions", ("treepolicy.evalkit:count_action_regions",)),
    ("binio.write_blocks", ("treepolicy.binio:write_blocks",)),
    ("binio.read_blocks", ("treepolicy.binio:read_blocks",)),
    ("pipeline.sha256_file", ("treepolicy.pipeline:sha256_file",)),
)


def _returned_loss(args, kwargs, result) -> int:
    # train_step returns None while the buffer cannot fill a batch yet
    return int(result is not None)


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


# layer -> (counter name, count taken after each call)
COUNTERS = {
    "teacher.train_step": ("useful", _returned_loss),
    "binio.write_blocks": ("bytes", _file_bytes),
    "binio.read_blocks": ("bytes", _file_bytes),
}

# Percentiles tried for a layer's tail, highest first. The tail is the highest
# one that still has at least TAIL_MIN_BEYOND samples beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def _resolve(site: str):
    """(owner, attribute, function) for a lookup site, or None if it is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


def _rank(sorted_samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = max(0, math.ceil(pct / 100.0 * len(sorted_samples)) - 1)
    return sorted_samples[idx]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples beyond it."""
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= TAIL_MIN_BEYOND:
            return pct
    return None


class _Layer:
    def __init__(self):
        self.present = False
        self.samples: list[float] = []
        self.self_s = 0.0
        self.counter = 0


class Tracer:
    """Context manager that times every layer while active.

    Entering installs the wrappers and leaving restores the original
    functions; samples accumulate across entries. A layer's self time is its
    duration minus the time spent in traced layers it called.
    """

    def __init__(self):
        self.layers = {name: _Layer() for name, _ in LAYERS}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, sites in LAYERS:
            found = [s for s in (_resolve(site) for site in sites) if s is not None]
            self.layers[name].present = bool(found)
            for owner, attr, fn in found:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        rec = self.layers[name]
        count = COUNTERS.get(name, (None, None))[1]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                rec.samples.append(elapsed)
                rec.self_s += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                rec.counter += count(args, kwargs, result)
            return result

        return timed

    def summary(self) -> list[dict]:
        """One row per layer with totals over every traced call."""
        rows = []
        for name, rec in self.layers.items():
            samples = sorted(rec.samples)
            n = len(samples)
            tail = tail_percentile(n)
            rows.append({
                "layer": name,
                "absent": not rec.present,
                "calls": n,
                "busy_s": math.fsum(samples),
                "self_s": rec.self_s,
                "p50_us": _rank(samples, 50.0) * 1e6 if n else 0.0,
                "tail_pct": tail,
                "tail_us": _rank(samples, tail) * 1e6 if tail is not None else 0.0,
                "counter_name": COUNTERS.get(name, (None, None))[0],
                "counter": rec.counter,
            })
        return rows
