"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria that need trained artifacts share a single session-scoped run of the
full two-scenario pipeline on the shipped synthetic fixture with default
configuration. Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines stream.
"""

import hashlib
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from treepolicy import pipeline
from treepolicy.dataio import NormalizationStats, RunConfig, load_profiles
from treepolicy.ddt import (
    TreeParams,
    crisp_predict,
    crispify,
    forward_batch,
    gradients_batch,
    tree_from_json,
)
from treepolicy.diffmath import (
    DenseNet,
    dense_forward_batch,
    dense_gradients,
    init_dense,
    softmax_neg,
)
from treepolicy.distill import distill_objective, distill_targets, target_logs, train_students
from treepolicy.evalkit import (
    CrispTreePolicy,
    RbcPolicy,
    TeacherPolicy,
    dp_optimal_cost,
    run_episode,
)
from treepolicy.teacher import load_checkpoint, load_states

from conftest import random_tree, tiny_config
from test_ddt import one_hot_tree
from test_distill import heldout_grid, planted_fixture


def criterion(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acceptance"))
    report = pipeline.run_reproduce(RunConfig(), out)
    return out, report


def scenario1_artifacts(out):
    s1 = os.path.join(out, "scenario1")
    profiles = load_profiles(os.path.join(s1, "profiles.csv"))
    stats = NormalizationStats.from_profiles(profiles)
    net, _ = load_checkpoint(os.path.join(s1, "checkpoints", "teacher.ckpt"))
    cfg = RunConfig()
    students = []
    for seed in cfg.seeds:
        path = os.path.join(s1, "students", f"ddt_d2_s{seed}.tree.json")
        students.append((seed, tree_from_json(Path(path).read_text())))
    return s1, cfg, profiles, stats, net, students


def test_criterion_1_parameter_accounting():
    net = DenseNet([5, 64, 64, 5])
    d2 = random_tree(2, np.random.default_rng(0))
    d3 = random_tree(3, np.random.default_rng(0))
    n_params = net.flat.size
    ok = (n_params == 4869
          and d2.num_training_params == 38 and d2.num_inference_params == 10
          and d3.num_training_params == 82 and d3.num_inference_params == 22)
    criterion(1, ok, f"dqn {n_params} params; depth-2 "
                     f"{d2.num_training_params}/{d2.num_inference_params}; depth-3 "
                     f"{d3.num_training_params}/{d3.num_inference_params}")


def test_criterion_2_relative_performance(pipeline_run):
    _, report = pipeline_run
    s = report["scenario1"]["summary"]
    ok = s["dqn_improvement_pct"] >= 15.0 and s["ddt2_improvement_pct"] >= 15.0
    criterion(2, ok, f"teacher {s['dqn_improvement_pct']:.1f}% and depth-2 student "
                     f"{s['ddt2_improvement_pct']:.1f}% better than RBC (need >= 15%)")


def test_criterion_3_teacher_student_gap(pipeline_run):
    _, report = pipeline_run
    s = report["scenario1"]["summary"]
    spread = ", ".join(f"{c:.3f}" for c in s["per_seed_ddt2"])
    ok = s["teacher_student_gap_pct"] <= 15.0 and s["seeds_beating_rbc"] >= 3
    criterion(3, ok, f"gap {s['teacher_student_gap_pct']:.1f}% (need <= 15%), "
                     f"{s['seeds_beating_rbc']}/5 seeds beat RBC; per-seed [{spread}]")


@pytest.mark.parametrize("beat, n_seeds, passed",
                         [(2, 2, True), (2, 5, False), (3, 5, True), (1, 1, True), (0, 1, False)])
def test_seeds_beating_rbc_bound_is_three_fifths_of_the_seeds_run(beat, n_seeds, passed):
    # the paper's 3 of 5, rounded up for other seed counts: 2 seeds need both
    check = pipeline._seeds_beat_rbc_check(beat, n_seeds, 9.285)
    assert check == {"check": "three_of_five_seeds_beat_rbc", "passed": passed,
                     "detail": f"{beat}/{n_seeds} seeds beat rbc 9.285"}


def test_criterion_4_optimality_sandwich(pipeline_run):
    out, _ = pipeline_run
    _, cfg, profiles, stats, net, students = scenario1_artifacts(out)
    battery, tariff = cfg.battery(), cfg.tariff()
    policies = [RbcPolicy(battery, stats), TeacherPolicy(net)]
    policies += [CrispTreePolicy(t, f"ddt2_s{seed}") for seed, t in students]
    worst_margin = np.inf
    for day, dp in zip(profiles, dp_optimal_cost(profiles, battery, tariff, cfg.initial_soc)):
        for pol in policies:
            cost = run_episode(pol, day, battery, tariff, stats,
                               cfg.initial_soc).total_cost_eur
            worst_margin = min(worst_margin, cost - dp)
            assert dp <= cost + 1e-6, f"{pol.policy_id} on {day.label}: {cost} < dp {dp}"
    criterion(4, True, f"dp <= every policy cost on all {len(profiles)} days "
                       f"(smallest margin {worst_margin:.6f} eur)")


def test_criterion_5_gradient_correctness():
    rng = np.random.default_rng(1729)
    worst = 0.0

    def rel_err(analytic, numeric):
        denom = max(abs(numeric), 1e-8)
        return abs(analytic - numeric) / denom if abs(analytic - numeric) > 1e-8 else 0.0

    # dense network gradients
    for _ in range(100):
        net = init_dense([5, 8, 6, 5], rng)
        x = rng.normal(size=5)
        g = rng.normal(size=5)
        grad = dense_gradients(net, x[None, :], lambda lo, out: g[None, :]).flat
        flat = net.flat
        idx = int(rng.integers(flat.size))
        h = 1e-5
        orig = flat[idx]
        flat[idx] = orig + h
        fp = float(dense_forward_batch(net, x[None, :])[0] @ g)
        flat[idx] = orig - h
        fm = float(dense_forward_batch(net, x[None, :])[0] @ g)
        flat[idx] = orig
        worst = max(worst, rel_err(grad[idx], (fp - fm) / (2 * h)))

    # tree gradients, both depths
    for i in range(100):
        depth = 2 if i % 2 == 0 else 3
        tree = random_tree(depth, rng)
        x = rng.uniform(size=5)
        g = rng.normal(size=5)
        grad = gradients_batch(tree, forward_batch(tree, x[None, :]), g[None, :]).flat
        flat = tree.flat
        idx = int(rng.integers(flat.size))
        h = 1e-5
        orig = flat[idx]
        flat[idx] = orig + h
        fp = float(forward_batch(tree, x[None, :]).dists[0] @ g)
        flat[idx] = orig - h
        fm = float(forward_batch(tree, x[None, :]).dists[0] @ g)
        flat[idx] = orig
        worst = max(worst, rel_err(grad[idx], (fp - fm) / (2 * h)))

    # the distillation objective training steps on: KL to the tempered teacher
    # targets plus the sparsity penalty, w.r.t. every tree parameter
    sparsity = RunConfig().feature_sparsity
    for i in range(100):
        tree = random_tree(2 if i % 2 == 0 else 3, rng)
        x = rng.uniform(size=(1, 5))
        targets = distill_targets(rng.normal(size=(1, 5)), rng.uniform(0.2, 2.0))
        logs = target_logs(targets)
        _, tg = distill_objective(tree, x, targets, logs, sparsity)
        flat, grad = tree.flat, tg.flat
        idx = int(rng.integers(flat.size))
        h = 1e-6
        orig = flat[idx]
        flat[idx] = orig + h
        fp = float(distill_objective(tree, x, targets, logs, sparsity)[0])
        flat[idx] = orig - h
        fm = float(distill_objective(tree, x, targets, logs, sparsity)[0])
        flat[idx] = orig
        worst = max(worst, rel_err(grad[idx], (fp - fm) / (2 * h)))

    criterion(5, worst <= 1e-4,
              f"mlp/ddt/distillation-objective analytic vs central differences, worst rel "
              f"err {worst:.2e} (need <= 1e-4, 100 seeded instances each)")


def test_criterion_6_distribution_invariants():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        p = softmax_neg(rng.normal(scale=5.0, size=5))
        worst = max(worst, abs(p.sum() - 1.0))
    for i in range(1000):
        tree = random_tree(2 if i % 2 == 0 else 3, rng)
        fwd = forward_batch(tree, rng.uniform(size=(1, 5)))
        worst = max(worst, abs(fwd.path_probs.sum() - 1.0))
        worst = max(worst, abs(fwd.dists.sum() - 1.0))
    criterion(6, worst <= 1e-9,
              f"softmax / leaf-path / output distributions sum to 1 "
              f"(worst deviation {worst:.2e} over 1000 trials each)")


def test_criterion_7_planted_tree_recovery():
    planted, ds = planted_fixture()
    grid = heldout_grid()
    want = crisp_predict(planted, grid)
    cfg = RunConfig()
    agreements = []
    for result in train_students(ds, cfg):
        got = crisp_predict(result.crisp, grid)
        agreements.append(float(np.mean(got == want)))
    recovered = sum(a >= 0.99 for a in agreements)
    detail = ", ".join(f"s{seed}={a:.3f}" for seed, a in zip(cfg.seeds, agreements))
    criterion(7, recovered >= 3,
              f"{recovered}/5 seeds recover the planted rules on the 41x41x3 grid "
              f"at >= 99% ({detail})")


def test_criterion_8_crisp_soft_saturation_consistency():
    rng = np.random.default_rng(8)
    axes = np.linspace(0.05, 0.95, 7)
    grid = np.array(list(itertools.product(axes, repeat=5)))
    checked = 0
    for i in range(10):
        depth = 2 if i % 2 == 0 else 3
        tree = one_hot_tree(depth, rng)
        crisp = crispify(tree)
        sat = TreeParams(depth, tree.feature_weights * 1e4, tree.thresholds * 1e4,
                         tree.leaf_weights)
        margin = np.ones(len(grid), dtype=bool)
        for node in range(2 ** depth - 1):
            margin &= np.abs(grid[:, crisp.feature_index[node]]
                             - crisp.thresholds[node]) >= 1e-3
        states = grid[margin]
        soft = forward_batch(sat, states).dists.argmax(axis=1)
        hard = crisp_predict(crisp, states)
        assert np.array_equal(soft, hard)
        checked += len(states)
    criterion(8, True, f"argmax of 1e4-scaled soft forward equals crisp_predict on "
                       f"{checked} grid states clear of thresholds")


def test_criterion_9_heatmap_structure(pipeline_run):
    _, report = pipeline_run
    checks = report["scenario2"]["checks"]
    panels = report["scenario2"]["summary"]["panels"]
    ok = all(c["passed"] for c in checks)
    ddt_max = max(p["regions"] for p in panels if p["policy"].startswith("ddt"))
    dqn_regions = report["scenario2"]["summary"]["dqn_regions"]
    criterion(9, ok, f"crisp-student panels within 2^depth regions/actions "
                     f"(max seen {ddt_max}); dqn panel regions {dqn_regions} (reported)")


def test_criterion_10_stage_determinism(tmp_path):
    cfg = tiny_config()
    out = str(tmp_path / "det")

    def run_all():
        pipeline.stage_gen_data(cfg, out)
        pipeline.stage_train_teacher(cfg, out)
        pipeline.stage_distill(cfg, out, depth=2)
        pipeline.stage_evaluate(cfg, out, depths=(2,))
        pipeline.stage_heatmap(cfg, out, depths=(2,))
        hashes = {}
        for sub, _, files in os.walk(out):
            for f in files:
                p = os.path.join(sub, f)
                hashes[os.path.relpath(p, out)] = hashlib.sha256(
                    Path(p).read_bytes()).hexdigest()
        return hashes

    first = run_all()
    second = run_all()
    changed = [k for k in first if first[k] != second[k]]
    criterion(10, first == second,
              f"re-running every stage rewrote {len(first)} artifacts byte-identically"
              + (f"; changed: {changed}" if changed else ""))


def test_criterion_11_footprint(pipeline_run):
    out, _ = pipeline_run
    s1 = os.path.join(out, "scenario1")
    ckpt = os.path.getsize(os.path.join(s1, "checkpoints", "teacher.ckpt"))
    trees = [os.path.getsize(os.path.join(s1, "students", f))
             for f in os.listdir(os.path.join(s1, "students")) if f.endswith(".tree.json")]
    d2 = os.path.getsize(os.path.join(s1, "students", "ddt_d2_s0.tree.json"))
    ok = max(trees) <= 8 * 1024 and ckpt >= 20 * d2
    criterion(11, ok, f"crisp trees <= {max(trees)} B (cap 8192); teacher checkpoint "
                      f"{ckpt} B is {ckpt / d2:.0f}x the depth-2 tree (need >= 20x)")


def test_reproduce_checks_all_passed(pipeline_run):
    out, report = pipeline_run
    summary_path = os.path.join(out, "reports", "reproduce_summary.json")
    assert os.path.exists(summary_path)
    stored = json.loads(Path(summary_path).read_text())
    assert stored["all_passed"] == report["all_passed"]
    assert report["all_passed"], [c for s in ("scenario1", "scenario2")
                                  for c in report[s]["checks"] if not c["passed"]]


def test_scenario2_distills_only_the_seed_it_renders(pipeline_run):
    out, report = pipeline_run
    seed = RunConfig().seeds[0]
    students = os.path.join(out, "scenario2", "students")
    expected = {f"summary_d{depth}.json" for depth in (2, 3)}
    expected |= {f"ddt_d{depth}_s{seed}{suffix}" for depth in (2, 3)
                 for suffix in (".tree.json", ".rules.txt", ".dot", ".soft.json", ".loss.csv")}
    assert set(os.listdir(students)) == expected
    for depth in (2, 3):
        summary = json.loads(Path(students, f"summary_d{depth}.json").read_text())
        assert [s["seed"] for s in summary["seeds"]] == [seed]
    student_panels = [p["policy"] for p in report["scenario2"]["summary"]["panels"]
                      if p["policy"] != "dqn"]
    assert student_panels
    for policy in student_panels:
        depth, panel_seed = policy.removeprefix("ddt").split("_s")
        assert os.path.exists(os.path.join(students, f"ddt_d{depth}_s{panel_seed}.tree.json"))


def test_distillation_dataset_spans_full_buffer(pipeline_run):
    out, _ = pipeline_run
    s1 = os.path.join(out, "scenario1")
    assert load_states(os.path.join(s1, "checkpoints", "replay.buf")).shape == (5000, 5)
    assert not os.path.exists(os.path.join(s1, "students", "dataset.bin"))


def test_best_seed_rules_are_schema_clean(pipeline_run):
    out, report = pipeline_run
    cfg = RunConfig()
    costs = report["scenario1"]["summary"]["per_seed_ddt2"]
    best_seed = cfg.seeds[int(np.argmin(costs))]
    s1 = os.path.join(out, "scenario1", "students")
    tree = tree_from_json(Path(s1, f"ddt_d2_s{best_seed}.tree.json").read_text())
    assert all(0.0 <= t <= 1.0 for t in tree.thresholds)
    text = Path(s1, f"ddt_d2_s{best_seed}.rules.txt").read_text()
    assert any(n in text for n in ("price", "pv", "demand", "soc", "hour"))
