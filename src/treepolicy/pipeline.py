"""End-to-end stages shared by the CLI: train, distill, evaluate, heatmaps.

Each stage reads and writes files under a fixed output layout::

    out/
      profiles.csv           gen-data
      checkpoints/           teacher checkpoint + the states it visited (replay.buf)
      students/              per-seed tree artifacts + per-depth summaries
      reports/               comparison tables, loss curves, summaries
      heatmaps/              per-panel CSV grids and SVG renderings

All outputs are byte-deterministic functions of (config, seeds, inputs), at
any BLAS thread count.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from . import distill, evalkit, teacher
from .dataio import (
    HOURS,
    DayProfile,
    NormalizationStats,
    RunConfig,
    build_profiles,
    csv_text,
    load_profiles,
    save_profiles,
    write_text,
)
from .ddt import export_rules, load_tree
from .envsim import HomeEnv
from .errors import ConfigError

# where the teacher's artifacts lie under the output directory
CHECKPOINT = os.path.join("checkpoints", "teacher.ckpt")
STATES = os.path.join("checkpoints", "replay.buf")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def ensure_layout(out: str) -> None:
    """Create the output layout under ``out``; an ``out`` that cannot hold it (a
    file, or a directory that cannot be written) raises ``ConfigError`` naming --out."""
    try:
        for sub in ("checkpoints", "students", "reports", "heatmaps"):
            os.makedirs(os.path.join(out, sub), exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out!r} cannot hold the output layout: {exc}") from None


def require_out_dir(out: str) -> None:
    """An existing ``out`` that is not a directory raises ``ConfigError`` naming --out.
    A stage that can read its inputs inside ``out`` checks this first, so such a file
    is not reported as a missing input."""
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"--out {out!r} is not a directory")


def write_json(path: str, obj) -> None:
    write_text(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_gen_data(config: RunConfig, out: str) -> list[str]:
    """Synthesize the day set described by the config into out/profiles.csv."""
    if config.profile_path:
        raise ConfigError(f"gen-data synthesizes profiles, but profile_path selects real data "
                          f"({config.profile_path!r}); clear it to generate the fixture")
    profiles = build_profiles(config)
    ensure_layout(out)
    path = os.path.join(out, "profiles.csv")
    save_profiles(profiles, path)
    return [path]


def _student_stem(out: str, depth: int, seed: int) -> str:
    """Student (depth, seed)'s artifact path, less the suffix of each file."""
    return os.path.join(out, "students", f"ddt_d{depth}_s{seed}")


def _teacher_artifact(path: str) -> str:
    """``path``, a file train-teacher writes; a missing one raises ``ConfigError``."""
    if not os.path.exists(path):
        raise ConfigError(f"missing artifact {path!r}; run the train-teacher command first")
    return path


def _load_profiles_for(config: RunConfig, out: str) -> tuple[list[DayProfile], str]:
    path = config.profile_path or os.path.join(out, "profiles.csv")
    if not os.path.exists(path):
        raise ConfigError(f"profiles file {path!r} not found; run the gen-data command first "
                          "(or point --profiles at real data)")
    return load_profiles(path), path


def stage_train_teacher(config: RunConfig, out: str) -> dict:
    """Train the DQN teacher and write its checkpoint, the states it visited and its
    loss curve; the checkpoint keeps the training profiles' normalization for
    every later stage."""
    require_out_dir(out)
    profiles, ppath = _load_profiles_for(config, out)
    stats = NormalizationStats.from_profiles(profiles)
    env = HomeEnv(config.battery(), config.tariff(), stats)
    ensure_layout(out)
    result = teacher.train_teacher(config, env, profiles)
    ckpt, buf = os.path.join(out, CHECKPOINT), os.path.join(out, STATES)
    loss_csv = os.path.join(out, "reports", "teacher_loss.csv")
    teacher.save_checkpoint(result.agent.online_net, stats, ckpt)
    teacher.save_states(result.buffer.states[:len(result.buffer)], buf)
    write_text(loss_csv, csv_text(("step", "loss"), enumerate(result.losses)))
    return {
        "inputs": [ppath],
        "outputs": [ckpt, buf, loss_csv],
        "final_loss": result.losses[-1] if result.losses else None,
    }


def stage_distill(config: RunConfig, out: str, depth: int,
                  checkpoint: str | None = None, buffer: str | None = None) -> dict:
    """Distill one depth-``depth`` student per config seed from the stored teacher
    and the states it visited."""
    require_out_dir(out)
    cfg = config.with_overrides(student_depth=depth)
    ckpt = _teacher_artifact(checkpoint or os.path.join(out, CHECKPOINT))
    buf = _teacher_artifact(buffer or os.path.join(out, STATES))
    net, _stats = teacher.load_checkpoint(ckpt)
    states = teacher.load_states(buf)
    try:
        dataset = distill.build_dataset(net, states)
    except ConfigError as exc:
        raise ConfigError(f"teacher {ckpt!r} on the states in {buf!r}: {exc}") from None
    del states      # the dataset holds its own copy; training need not keep this one
    ensure_layout(out)

    outputs = []
    per_seed = []
    for result in distill.train_students(dataset, cfg):
        seed = result.seed
        stem = _student_stem(out, depth, seed)
        tree_json = stem + ".tree.json"
        write_text(tree_json, export_rules(result.crisp, "json"))
        write_text(stem + ".rules.txt", export_rules(result.crisp, "text"))
        write_text(stem + ".dot", export_rules(result.crisp, "dot"))
        write_json(stem + ".soft.json", {
            "depth": depth,
            "feature_weights": result.tree.feature_weights.tolist(),
            "thresholds": result.tree.thresholds.tolist(),
            "leaf_weights": result.tree.leaf_weights.tolist(),
        })
        loss_csv = stem + ".loss.csv"
        write_text(loss_csv, csv_text(("epoch", "mean_loss"), enumerate(result.epoch_losses)))
        agreement = distill.agreement_rate(result.crisp, dataset.states, dataset.teacher_q)
        per_seed.append({
            "seed": seed,
            "final_loss": result.epoch_losses[-1],
            "teacher_agreement": agreement,
            "training_params": result.tree.num_training_params,
            "inference_params": result.tree.num_inference_params,
        })
        outputs += [tree_json, stem + ".rules.txt", stem + ".dot", stem + ".soft.json", loss_csv]
    summary = os.path.join(out, "students", f"summary_d{depth}.json")
    write_json(summary, {"depth": depth, "checkpoint": sha256_file(ckpt), "seeds": per_seed})
    outputs.append(summary)
    return {"inputs": [ckpt, buf], "outputs": outputs, "per_seed": per_seed}


def _student_policies(out: str, depth: int, seeds) -> list[tuple[int, evalkit.CrispTreePolicy]]:
    members = []
    for seed in seeds:
        path = _student_stem(out, depth, seed) + ".tree.json"
        if not os.path.exists(path):
            raise ConfigError(f"missing student tree {path!r}; run the distill command first")
        members.append((seed, evalkit.CrispTreePolicy(load_tree(path), f"ddt{depth}_s{seed}")))
    return members


def stage_evaluate(config: RunConfig, out: str, depths: tuple[int, ...]) -> dict:
    """Compare RBC, teacher, and stored students; include the DP oracle costs.
    Whatever days are evaluated, states are normalized with the checkpoint's
    statistics, the ones the teacher and the students' thresholds were learned under."""
    require_out_dir(out)
    profiles, ppath = _load_profiles_for(config, out)
    battery, tariff = config.battery(), config.tariff()
    ckpt = _teacher_artifact(os.path.join(out, CHECKPOINT))
    net, stats = teacher.load_checkpoint(ckpt)

    groups = [
        evalkit.PolicyGroup("rbc", [(0, evalkit.RbcPolicy(battery, stats))]),
        evalkit.PolicyGroup("dqn", [(config.teacher_seed, evalkit.TeacherPolicy(net))]),
    ]
    for depth in depths:
        groups.append(evalkit.PolicyGroup(f"ddt{depth}",
                                          _student_policies(out, depth, config.seeds)))
    ensure_layout(out)
    comparison = evalkit.compare_policies(groups, profiles, battery, tariff, stats,
                                          config.initial_soc)
    dp_costs = evalkit.dp_optimal_cost(profiles, battery, tariff, config.initial_soc)
    dp_mean = float(np.mean(dp_costs))

    per_seed_csv = os.path.join(out, "reports", "comparison_per_seed.csv")
    agg_csv = os.path.join(out, "reports", "comparison_summary.csv")
    dp_csv = os.path.join(out, "reports", "dp_oracle.csv")
    summary_json = os.path.join(out, "reports", "comparison.json")
    seed_cols = ("policy", "seed", "mean_daily_cost_eur")
    write_text(per_seed_csv, csv_text(seed_cols, [[r[c] for c in seed_cols]
                                                  for r in comparison.rows]))
    agg_cols = ("policy", "mean", "min", "q1", "median", "q3", "max",
                "improvement_vs_baseline_pct")
    write_text(agg_csv, csv_text(agg_cols, [[a[c] for c in agg_cols]
                                            for a in comparison.aggregates]))
    write_text(dp_csv, csv_text(("day", "dp_optimal_cost_eur"),
                                zip([day.label for day in profiles], dp_costs.tolist())))
    write_json(summary_json, {
        "aggregates": comparison.aggregates,
        "rows": comparison.rows,
        "dp_mean": dp_mean,
        "baseline": evalkit.BASELINE,
    })
    outputs = [per_seed_csv, agg_csv, dp_csv, summary_json]
    # one example trace per policy family on the first day, from the comparison's rollouts
    for name, report in comparison.first_day.items():
        trace_csv = os.path.join(out, "reports", f"trace_{name}_{report.day_label}.csv")
        write_text(trace_csv, csv_text(("hour", *evalkit.TRACE_COLUMNS),
                                       [[hour, *row] for hour, row in enumerate(report.trace)]))
        outputs.append(trace_csv)
    return {
        "inputs": [ppath, ckpt],
        "outputs": outputs,
        "aggregates": comparison.aggregates,
        "dp_mean": dp_mean,
        "comparison": comparison,
    }


def stage_heatmap(config: RunConfig, out: str, depths: tuple[int, ...],
                  seeds: tuple[int, ...] | None = None) -> dict:
    """Fig-4 style action maps over (soc, price) for the teacher and students."""
    require_out_dir(out)
    ckpt = _teacher_artifact(os.path.join(out, CHECKPOINT))
    net, _ = teacher.load_checkpoint(ckpt)
    seeds = tuple(seeds) if seeds else (config.seeds[0],)
    axis = np.linspace(0.0, 1.0, config.heatmap_grid)
    demand_levels = (0.2, 0.5, 0.8)
    hour_norm = config.heatmap_fixed_hour / (HOURS - 1)

    policies = [evalkit.TeacherPolicy(net, "dqn")]
    policies += [pol for depth in depths for _, pol in _student_policies(out, depth, seeds)]

    ensure_layout(out)
    outputs = []
    panels = []
    for pol in policies:
        grids = evalkit.policy_heatmap(pol, axis, axis, demand_levels, hour_norm,
                                       config.heatmap_fixed_pv)
        for hg in grids:
            stem = os.path.join(out, "heatmaps", f"{pol.policy_id}_demand{hg.demand_level:.1f}")
            write_text(stem + ".csv", evalkit.heatmap_to_csv(hg))
            write_text(stem + ".svg", evalkit.heatmap_to_svg(hg))
            panels.append({
                "policy": pol.policy_id,
                "demand_level": hg.demand_level,
                "regions": evalkit.count_action_regions(hg.actions),
                "distinct_actions": int(len(np.unique(hg.actions))),
            })
            outputs += [stem + ".csv", stem + ".svg"]
    summary = os.path.join(out, "heatmaps", "summary.json")
    write_json(summary, {"panels": panels})
    outputs.append(summary)
    return {"inputs": [ckpt], "outputs": outputs, "panels": panels}


# ---------------------------------------------------------------------------
# Reproduce: both experiment scenarios plus the acceptance checks
# ---------------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str) -> dict:
    return {"check": name, "passed": bool(ok), "detail": detail}


DEPTHS = (2, 3)     # the student depths both scenarios distill, evaluate and render


def _seeds_beat_rbc_check(beat: int, n_seeds: int, rbc: float) -> dict:
    """The paper's 3 of 5 seeds below the RBC's mean cost, as that share of
    the seeds run, rounded up: 3 of 5, 2 of 2, 1 of 1."""
    return _check("three_of_five_seeds_beat_rbc", beat >= -(-3 * n_seeds // 5),
                  f"{beat}/{n_seeds} seeds beat rbc {rbc:.3f}")


def _train_scenario(cfg: RunConfig, out: str) -> None:
    """gen-data, train-teacher, then distill at every depth in ``DEPTHS``."""
    stage_gen_data(cfg, out)
    stage_train_teacher(cfg, out)
    for depth in DEPTHS:
        stage_distill(cfg, out, depth)


def run_scenario1(config: RunConfig, out: str) -> tuple[list[dict], dict]:
    """Performance comparison on the square-wave fixture (PV on)."""
    cfg = config.with_overrides(profile_path="", pv_enabled=True)
    _train_scenario(cfg, out)
    ev = stage_evaluate(cfg, out, DEPTHS)

    agg = {a["policy"]: a for a in ev["aggregates"]}
    rbc, dqn, ddt2 = agg["rbc"]["mean"], agg["dqn"]["mean"], agg["ddt2"]["mean"]
    dqn_impr = agg["dqn"]["improvement_vs_baseline_pct"]
    ddt_impr = agg["ddt2"]["improvement_vs_baseline_pct"]
    gap_pct = (ddt2 - dqn) / dqn * 100.0
    seed_costs = [r["mean_daily_cost_eur"] for r in ev["comparison"].rows if r["policy"] == "ddt2"]
    beat = sum(1 for c in seed_costs if c < rbc)
    policy_means = [a["mean"] for a in ev["aggregates"]]
    checks = [
        _check("teacher_beats_rbc_15pct", dqn_impr >= 15.0,
               f"teacher {dqn:.3f} vs rbc {rbc:.3f} -> {dqn_impr:.1f}% (need >= 15%)"),
        _check("student_beats_rbc_15pct", ddt_impr >= 15.0,
               f"ddt2 mean {ddt2:.3f} vs rbc {rbc:.3f} -> {ddt_impr:.1f}% (need >= 15%)"),
        _check("teacher_student_gap_15pct", gap_pct <= 15.0,
               f"ddt2 mean {ddt2:.3f} vs teacher {dqn:.3f} -> gap {gap_pct:.1f}% (need <= 15%)"),
        _seeds_beat_rbc_check(beat, len(seed_costs), rbc),
        _check("dp_lower_bounds_all", ev["dp_mean"] <= min(policy_means) + 1e-6,
               f"dp mean {ev['dp_mean']:.3f} <= best policy mean {min(policy_means):.3f} "
               f"(the oracle is exact for discrete-action policies; dp <= rbc is "
               f"empirical, the rbc emits continuous signals)"),
    ]
    summary = {
        "rbc_mean": rbc, "dqn_mean": dqn, "ddt2_mean": ddt2,
        "ddt3_mean": agg["ddt3"]["mean"], "dp_mean": ev["dp_mean"],
        "dqn_improvement_pct": dqn_impr, "ddt2_improvement_pct": ddt_impr,
        "teacher_student_gap_pct": gap_pct, "seeds_beating_rbc": beat,
        "per_seed_ddt2": seed_costs,
    }
    return checks, summary


def run_scenario2(config: RunConfig, out: str) -> tuple[list[dict], dict]:
    """Reduced explainability scenario: no PV, heatmap structure comparison. It
    distills only the first config seed, the one ``stage_heatmap`` renders."""
    cfg = config.with_overrides(profile_path="", pv_enabled=False, seeds=config.seeds[:1])
    _train_scenario(cfg, out)
    hm = stage_heatmap(cfg, out, DEPTHS)

    checks = []
    dqn_regions = []
    for panel in hm["panels"]:
        if panel["policy"].startswith("ddt"):
            bound = 2 ** int(panel["policy"][3])
            checks.append(_check(
                f"{panel['policy']}_demand{panel['demand_level']:.1f}_regions",
                panel["regions"] <= bound and panel["distinct_actions"] <= bound,
                f"{panel['regions']} regions, {panel['distinct_actions']} actions (bound {bound})",
            ))
        else:
            dqn_regions.append(panel["regions"])
    summary = {"panels": hm["panels"], "dqn_regions": dqn_regions}
    return checks, summary


def run_reproduce(config: RunConfig, out: str) -> dict:
    """Both scenarios end to end; returns the combined pass/fail report."""
    s1_out = os.path.join(out, "scenario1")
    s2_out = os.path.join(out, "scenario2")
    checks1, summary1 = run_scenario1(config, s1_out)
    checks2, summary2 = run_scenario2(config, s2_out)
    all_checks = checks1 + checks2
    report = {
        "scenario1": {"checks": checks1, "summary": summary1},
        "scenario2": {"checks": checks2, "summary": summary2},
        "all_passed": all(c["passed"] for c in all_checks),
    }
    os.makedirs(os.path.join(out, "reports"), exist_ok=True)
    write_json(os.path.join(out, "reports", "reproduce_summary.json"), report)
    return report
