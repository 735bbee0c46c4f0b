"""One benchmark child process: set up a workload, time its stage calls, check outputs.

Started by ``run.py`` with a JSON spec as its only argument; prints one JSON
result line on standard output. Set-up time runs from the parent's spawn
(``t0``, on the system-wide monotonic clock) to the end of the fixture build,
so it includes interpreter start and imports. Untraced runs report it raw and
at the reference host speed, like the stage calls (see ``calibrate``).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback


def _facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # show_config's signature and layout vary by numpy version
        blas_desc = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_desc,
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
    }


# each stage call is normalised by the mean of this many rounds on either side
SMOOTHING_ROUNDS = 2


def _calibrated_rep(workload, rep: int, rounds: list, step_log: list) -> tuple[float, float]:
    """Run the stage calls with a calibration round after each one.

    Appends the rounds to ``rounds`` and ``(rep, wall, index of the round
    after the call)`` to ``step_log``; returns the raw wall and CPU seconds of
    the stage calls.
    """
    from calibrate import calibration_round

    wall = cpu = 0.0
    for step in workload.steps():
        c0, t0 = time.process_time(), time.perf_counter()
        step()
        step_wall, step_cpu = time.perf_counter() - t0, time.process_time() - c0
        step_log.append((rep, step_wall, len(rounds)))
        rounds.append(calibration_round(workload.calibration))
        wall += step_wall
        cpu += step_cpu
    return wall, cpu


def _normalised_walls(step_log: list, rounds: list) -> list[float]:
    """Wall time of each complete repetition at the reference host speed."""
    from calibrate import REFERENCE_S

    reps: dict[int, float] = {}
    for rep, wall, after in step_log:
        near = rounds[max(0, after - SMOOTHING_ROUNDS):after + SMOOTHING_ROUNDS]
        reps[rep] = reps.get(rep, 0.0) + wall * REFERENCE_S / statistics.fmean(near)
    return list(reps.values())


def _timed_reps(workload, budget_s: float, trace: bool, scratch: str,
                reference: dict | None) -> dict:
    """Repeat the timed section until the budget is spent.

    Untraced runs put a calibration round between stage calls (see
    ``calibrate``) and report each repetition's raw wall time and its wall time
    at the reference host speed: each stage call is divided by the mean of the
    ``SMOOTHING_ROUNDS`` rounds before and after it.
    Traced runs alternate untraced and traced repetitions, without
    calibration, so that the tracing overhead is measured in the same
    process. Without ``reference`` digests the first repetition is checked in
    full; every other repetition must leave artifacts byte-identical to the
    checked ones.
    """
    from calibrate import calibration_round, warm_up
    from tracer import Tracer
    from workloads import fingerprint

    tracer = Tracer() if trace else None
    walls, cpus, traced_walls = [], [], []
    rounds: list[float] = []
    step_log: list[tuple[int, float, int]] = []
    attempted = failed = 0
    reasons: list[str] = []
    quality: dict = {}
    first_digests = reference or None
    if not trace:
        warm_up(workload.calibration)
        rounds.append(calibration_round(workload.calibration))
    while True:
        traced = trace and len(walls) > len(traced_walls)
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if traced:
                with tracer:
                    workload.timed()
            elif trace:
                workload.timed()
            else:
                logged = len(step_log)
                wall, cpu = _calibrated_rep(workload, len(walls), rounds, step_log)
        except Exception:  # a failing stage fails this repetition's ops, not the run
            error = traceback.format_exc()
            if not trace:
                del step_log[logged:]   # only complete repetitions are normalised
        if trace or error is not None:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        (traced_walls if traced else walls).append(wall)
        if not traced:
            cpus.append(cpu)

        attempted += workload.ops_per_rep
        if error is not None:
            sys.stderr.write(error)
            failed += workload.ops_per_rep
            reasons.append(error.strip().splitlines()[-1])
        else:
            digests = fingerprint(workload.out)
            if first_digests is None:
                first_digests = digests
                try:
                    outcome = workload.check(scratch)
                    failed += outcome.failed
                    reasons += outcome.reasons
                    quality = outcome.quality
                except Exception:  # an unreadable output fails the repetition's ops
                    failed += workload.ops_per_rep
                    reasons.append(traceback.format_exc().strip().splitlines()[-1])
            elif digests != first_digests:
                failed += workload.ops_per_rep
                reasons.append("a repeated run left different artifacts than the checked one")

        spent = sum(walls) + sum(traced_walls) + sum(rounds)
        next_traced = trace and len(walls) > len(traced_walls)
        estimate = statistics.median((traced_walls if next_traced else walls) or walls)
        if (not trace or traced_walls) and spent + estimate > budget_s:
            break
    return {
        "walls": walls, "cpus": cpus, "traced_walls": traced_walls,
        "normalised_walls": _normalised_walls(step_log, rounds), "cal_rounds": rounds,
        "attempted": attempted, "failed": failed, "reasons": reasons[:10],
        "quality": quality, "digests": first_digests or {},
        "layers": tracer.summary() if trace else None,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    import treepolicy

    package = os.path.realpath(os.path.dirname(treepolicy.__file__))
    if package != os.path.realpath(os.path.join(spec["root"], "src", "treepolicy")):
        print(f"bench child: imported treepolicy from {package}, not from this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out = os.path.join(spec["dir"], "run")
    scratch = os.path.join(spec["dir"], "scratch")
    os.makedirs(scratch, exist_ok=True)
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["smoke"], out)
    workload.setup()
    setup_s = time.monotonic() - spec["t0"]
    result = _timed_reps(workload, spec["budget_s"], spec["trace"], scratch, spec["reference"])
    from calibrate import REFERENCE_S

    # set-up is normalised like a stage call, by the rounds that follow it
    rounds = result["cal_rounds"][:SMOOTHING_ROUNDS]
    result.update(raw_setup_s=setup_s,
                  setup_s=setup_s * REFERENCE_S / statistics.fmean(rounds) if rounds else setup_s)
    result.update(cal_reference_s=REFERENCE_S, ops_per_rep=workload.ops_per_rep,
                  work_per_rep=workload.work_per_rep, rate_metric=workload.rate_metric,
                  key_artifacts=workload.key_artifacts, facts=_facts())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
