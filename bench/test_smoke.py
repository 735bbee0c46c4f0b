"""Smoke test of the benchmark at its smallest sizes.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# end-to-end metrics each workload prints in its report besides the JSON summary
REPORTED = {
    "teacher": ("env_steps_per_s", "dqn_cost_eur"),
    "distill": ("student_updates_per_s", "ddt2_cost_eur", "ddt3_cost_eur", "teacher_agreement"),
    "evaluate": ("policy_days_per_s", "oracle_violations"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines, summary = run.run_benchmark(ROOT, workload, seed=3, seconds=1, trace=bool(trace),
                                       smoke=True)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in summary["metrics"].values())
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    json.dumps(summary)
    names = {line.split()[0] for line in lines if not line.startswith("#")}
    common = ("wall_s", "setup_s", "peak_rss_mb", "error_rate")
    assert trace or set(common + REPORTED[workload]) <= names


def test_refuses_a_directory_without_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "teacher", "--seed", "1", "--seconds", "1"]) == 2


def test_missing_lookup_site_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.setattr(tracer, "LAYERS", (
        ("gone.module", ("treepolicy.no_such_module:f",)),
        ("gone.attribute", ("treepolicy.envsim:NoSuchClass.step",)),
        ("envsim.HomeEnv.step", ("treepolicy.envsim:HomeEnv.step",)),
    ))
    from treepolicy import envsim

    original = envsim.HomeEnv.step
    with tracer.Tracer() as tr:
        assert envsim.HomeEnv.step is not original
    assert envsim.HomeEnv.step is original
    absent = {row["layer"]: row["absent"] for row in tr.summary()}
    assert absent == {"gone.module": True, "gone.attribute": True, "envsim.HomeEnv.step": False}


def test_calibration_scales_wall_time_to_the_reference_speed():
    import calibrate
    import child

    ref = calibrate.REFERENCE_S
    # (repetition, stage-call wall, index of the round after the call)
    log = [(0, 0.5, 1), (0, 0.25, 2), (1, 0.5, 3), (1, 0.25, 4)]
    assert child._normalised_walls(log, [ref] * 5) == pytest.approx([0.75, 0.75])
    # on a host at half speed the rounds and the stage calls both take twice as long
    assert child._normalised_walls([(0, 1.5, 1)], [2 * ref] * 2) == pytest.approx([0.75])
