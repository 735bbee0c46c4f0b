#!/usr/bin/env python3
"""treepolicy benchmark: one pipeline stage per workload, timed in fresh child processes.

Run from the repository root:

    python3 bench/run.py --workload teacher --seed 1 --seconds 20 --trace 0

Workloads (sizes in ``workloads.SIZES``):

  teacher   stage_gen_data + stage_train_teacher at the default 64x64 network,
            batch 1000 and buffer 5000, for 70 episodes. Bound by
            teacher.train_step; the tree and oracle code do no work, so it is
            the bypass workload for student and oracle changes.
  distill   stage_distill at depth 2 and 3: five seeds each over the 5,000-row
            dataset at batch 64, from a teacher trained during set-up. Bound by
            the tree loss, its gradients and Adam.
  evaluate  stage_evaluate + stage_heatmap for rbc, dqn and the ten students
            over a 365-day year, with the DP oracle at the pipeline's grid.
            Bound by the oracle and the rollouts; the env runs many
            independent days instead of one step at a time.

With ``--trace 0`` three children run one after another. Each starts an
interpreter and builds the fixture (set-up; ``setup_s`` is the median of the
three, normalised like ``wall_s`` below by the rounds that follow it and
printed raw as ``raw_setup_s``), then repeats the workload's stage calls for a
third of ``--seconds``, with a fixed calibration round after each stage call
(``calibrate.py``). ``wall_s`` is the median repetition over all three children, at the reference
host speed: each stage call's wall time is divided by the mean of the rounds
around it and multiplied by ``calibrate.REFERENCE_S``. The speed of a shared
host swings by tens of percent over tens of seconds; the calibration takes
that swing out, and the raw median is printed as ``raw_wall_s`` next to it.
With ``--trace 1`` one child alternates untraced and traced repetitions for
``--seconds``, without calibration, and reports per-layer timings and the
tracing overhead.

The first child checks the outputs of its first repetition in full; every
other repetition, in any child, must leave byte-identical artifacts (SHA-256).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0   # every child is killed past this, within the 180 s a run may take

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYER_FIELDS = (("calls", "count"), ("self_s", "s"), ("share", "fraction"),
                ("p50_us", "us"), ("tail_us", "us"))
EXTRA_LAYER_METRICS = (
    ("teacher.train_step.useful_ratio", "fraction"),
    ("binio.write_blocks.bytes", "B"),
    ("binio.read_blocks.bytes", "B"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "cores"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("evalkit.dp_optimal_cost.violations", "count"),
)
WORKLOAD_NAMES = ("teacher", "distill", "evaluate")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def metric_key(layer: str) -> str:
    return layer.replace("@", "_at_")


def per_layer_units() -> dict[str, str]:
    units = {f"{metric_key(layer)}.{field}": unit
             for layer, _sites in LAYERS for field, unit in LAYER_FIELDS}
    units.update(EXTRA_LAYER_METRICS)
    return units


def src_line_count(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_child(root: str, spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    spec = dict(spec, t0=time.monotonic())
    cmd = [sys.executable, os.path.join(root, "bench", "child.py"), json.dumps(spec)]
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} child exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{spec['workload']} child printed no result")
    return json.loads(lines[-1])


def run_benchmark(root: str, workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool = False) -> tuple[list[str], dict]:
    """Run one workload; returns the report lines and the JSON summary."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    children = 1 if trace else SETUP_REPEATS
    results = []
    try:
        for i in range(children):
            spec = {"root": root, "workload": workload, "seed": seed, "trace": trace,
                    "smoke": smoke, "dir": os.path.join(work, f"child{i}"),
                    "budget_s": seconds / children,
                    "reference": results[0]["digests"] if results else None}
            try:
                results.append(run_child(root, spec, deadline))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload} did not finish within {RUN_LIMIT_S:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    # the first child checked its outputs in full; the others matched its digests
    timed = dict(results[0],
                 walls=[w for r in results for w in r["walls"]],
                 normalised_walls=[w for r in results for w in r["normalised_walls"]],
                 cal_rounds=[c for r in results for c in r["cal_rounds"]],
                 raw_setups=[r["raw_setup_s"] for r in results],
                 attempted=sum(r["attempted"] for r in results),
                 failed=sum(r["failed"] for r in results),
                 reasons=[reason for r in results for reason in r["reasons"]][:10],
                 peak_rss_mb=max(r["peak_rss_mb"] for r in results))
    lines = _header(root, workload, seed, seconds, trace, timed)
    if trace:
        metrics = _layer_metrics(timed, lines)
    else:
        metrics = _end_to_end_metrics(timed, [r["setup_s"] for r in results], lines)
    summary = {
        "correct": timed["failed"] == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": metrics,
    }
    return lines, summary


def _header(root, workload, seed, seconds, trace, timed) -> list[str]:
    facts = timed["facts"]
    threads = " ".join(f"{k}={v}" for k, v in facts["blas_threads_env"].items())
    return [
        f"# treepolicy bench: workload={workload} seed={seed} seconds={seconds:g} "
        f"trace={int(trace)}",
        f"# machine: nproc={len(os.sched_getaffinity(0))} python={facts['python']} "
        f"numpy={facts['numpy']} blas={facts['blas']!r} {threads}",
        f"# code: src_lines={src_line_count(root)}",
    ]


def _row(name: str, value, unit: str, detail: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{name:<36} {shown:>14} {unit:<8} {detail}".rstrip()


def _end_to_end_metrics(timed: dict, setups: list[float], lines: list[str]) -> dict:
    walls, normalised = timed["walls"], timed["normalised_walls"]
    values = {
        # a run in which every repetition failed has no normalised time
        "wall_s": statistics.median(normalised or walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    attempted, failed = timed["attempted"], timed["failed"]
    rate = timed["work_per_rep"] / values["wall_s"]
    lines.append(_row("metric", "value", "unit", "detail"))
    lines += [
        _row("wall_s", values["wall_s"], "s",
             f"median of {len(normalised)} repetitions at the reference host speed"),
        _row("raw_wall_s", statistics.median(walls), "s",
             f"median of {len(walls)} repetitions, min {min(walls):.4g}, max {max(walls):.4g}"),
        _row("calibration_round_s", statistics.median(timed["cal_rounds"] or [math.nan]), "s",
             f"median; {timed['cal_reference_s']:g} s at the reference host speed"),
        _row("setup_s", values["setup_s"], "s",
             "median of " + ", ".join(f"{s:.4g}" for s in setups)
             + " at the reference host speed"),
        _row("raw_setup_s", statistics.median(timed["raw_setups"]), "s",
             "median of " + ", ".join(f"{s:.4g}" for s in timed["raw_setups"])),
        _row("peak_rss_mb", values["peak_rss_mb"], "MB", "largest child"),
        _row("error_rate", failed / attempted, "fraction", f"{failed} of {attempted} ops failed"),
        _row(timed["rate_metric"], rate, "1/s",
             f"{timed['work_per_rep']} per repetition, at the reference host speed"),
    ]
    for name, value in timed["quality"].items():
        unit = "EUR" if name.endswith("_eur") else "count" if name.endswith("violations") \
            else "fraction"
        lines.append(_row(name, value, unit, "first repetition"))
    lines += [f"# failure: {reason}" for reason in timed["reasons"]]
    lines += _fingerprint_lines(timed)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _fingerprint_lines(timed: dict) -> list[str]:
    digests = timed["digests"]
    combined = hashlib.sha256("".join(f"{p} {d}\n" for p, d in digests.items()).encode())
    lines = [f"# sha256 {digest} {path}" for path, digest in digests.items()
             if any(fnmatch.fnmatchcase(path, pattern) for pattern in timed["key_artifacts"])]
    lines.append(f"# sha256 {combined.hexdigest()} all {len(digests)} output files")
    return lines


def _layer_metrics(timed: dict, lines: list[str]) -> dict:
    untraced, traced = timed["walls"], timed["traced_walls"]
    reps = len(traced)
    traced_total = sum(traced)
    units = per_layer_units()
    values: dict[str, float] = {}
    lines.append(f"{'layer':<30} {'calls/rep':>10} {'busy_s/rep':>11} {'self_s/rep':>11} "
                 f"{'share':>7} {'p50_us':>10}  tail")
    for row in timed["layers"]:
        key = metric_key(row["layer"])
        share = row["busy_s"] / traced_total
        values.update({
            f"{key}.calls": row["calls"] / reps,
            f"{key}.self_s": row["self_s"] / reps,
            f"{key}.share": share,
            f"{key}.p50_us": row["p50_us"],
            f"{key}.tail_us": row["tail_us"],
        })
        if row["absent"]:
            tail = "absent: no lookup site left"
        elif row["calls"] == 0:
            tail = "not called"
        elif row["tail_pct"] is None:
            tail = f"no percentile has 10 samples beyond it (n={row['calls']})"
        else:
            tail = f"p{row['tail_pct']:g}={row['tail_us']:.4g}us (n={row['calls']})"
        lines.append(f"{row['layer']:<30} {row['calls'] / reps:>10g} "
                     f"{row['busy_s'] / reps:>11.4g} {row['self_s'] / reps:>11.4g} "
                     f"{share:>7.1%} {row['p50_us']:>10.4g}  {tail}")
        if row["counter_name"] == "useful":
            ratio = row["counter"] / row["calls"] if row["calls"] else 0.0
            values[f"{key}.useful_ratio"] = ratio
            lines.append(f"  useful_ratio {ratio:.4g} ({row['counter']} of {row['calls']} "
                         "calls returned a loss)")
        elif row["counter_name"] == "bytes":
            values[f"{key}.bytes"] = row["counter"] / reps
            lines.append(f"  bytes/rep {row['counter'] / reps:g}")
    cpu_s = statistics.median(timed["cpus"])
    wall = statistics.median(untraced)
    values.update({
        "process.cpu_s": cpu_s,
        "process.cpu_util": cpu_s / wall,
        "trace.wall_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - wall,
        "evalkit.dp_optimal_cost.violations": timed["quality"].get("oracle_violations", 0),
    })
    lines += [
        f"# untraced wall_s {wall:.4g} (n={len(untraced)}), traced wall_s "
        f"{values['trace.wall_s']:.4g} (n={reps}), tracing overhead "
        f"{values['trace.overhead_s']:.4g} s",
        f"# process cpu_s {cpu_s:.4g}, cpu_util {values['process.cpu_util']:.3g} cores",
        f"# oracle violations {values['evalkit.dp_optimal_cost.violations']}",
    ]
    lines += [f"# failure: {reason}" for reason in timed["reasons"]]
    lines += _fingerprint_lines(timed)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "treepolicy", "__init__.py")):
        print("bench: src/treepolicy not found; run from the root of a treepolicy checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        lines, summary = run_benchmark(root, args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
