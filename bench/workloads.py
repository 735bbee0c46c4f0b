"""The benchmark workloads: fixture set-up, the timed stage calls, and output checks.

Each workload runs the pipeline's own ``stage_*`` functions on the synthetic
fixture. The data, teacher and student seeds are all derived from the
workload seed, so one command-line seed fixes every input.

An op is the unit that ``attempted`` and ``failed`` count: one teacher run,
one student, or one policy-day or oracle-day. An op fails if its stage raises
or if it fails its check; a check never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from treepolicy import evalkit, pipeline, teacher
from treepolicy.dataio import NormalizationStats, RunConfig, load_profiles
from treepolicy.ddt import TreeParams, crispify, tree_from_json, tree_to_json
from treepolicy.envsim import ACTION_NAMES, FEATURE_NAMES

DEPTHS = (2, 3)
N_STUDENT_SEEDS = 5
# rollout cost below the oracle's "lower bound" by more than this is a violation
ORACLE_TOLERANCE_EUR = 1e-9

# RunConfig overrides per role. "setup_teacher" is the teacher that distill and
# evaluate train during set-up: batch 64 keeps set-up short while 210 episodes
# still fill the default 5,000-row replay buffer that distillation reads.
SIZES = {
    "teacher": {"days": 16, "episodes": 70},
    "setup_teacher": {"episodes": 210, "batch_size": 64},
    "distill": {"days": 16, "student_epochs": 5},
    "evaluate": {"days": 365, "student_epochs": 2},
}
# Smallest sizes at which every stage still does real work; used by the smoke test.
SMOKE_SIZES = {
    "teacher": {"days": 4, "episodes": 12, "batch_size": 100, "buffer_size": 300},
    "setup_teacher": {"episodes": 12, "batch_size": 64},
    "distill": {"days": 4, "student_epochs": 1},
    "evaluate": {"days": 6, "student_epochs": 1},
}


def run_config(seed: int, overrides: dict) -> RunConfig:
    """Config whose data, teacher and student seeds all derive from ``seed``."""
    derived = [int(s) >> 1 for s in np.random.SeedSequence(seed).generate_state(2 + N_STUDENT_SEEDS)]
    return RunConfig(data_seed=derived[0], teacher_seed=derived[1],
                     seeds=tuple(derived[2:]), **overrides)


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def fingerprint(out: str) -> dict[str, str]:
    """SHA-256 of every file under the pipeline output directory, by relative path."""
    digests = {}
    for dirpath, _dirs, files in os.walk(out):
        for fname in files:
            path = os.path.join(dirpath, fname)
            digests[os.path.relpath(path, out).replace(os.sep, "/")] = sha256_of(path)
    return dict(sorted(digests.items()))


class Outcome:
    """Attempted ops, the ones that failed with a reason, and the quality numbers."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed_ops: set = set()
        self.reasons: list[str] = []
        self.quality: dict[str, float] = {}

    def fail(self, ops, reason: str) -> None:
        self.failed_ops.update(ops)
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def _read_csv_column(path: str, column: int) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        return [float(line.split(",")[column]) for line in fh.read().splitlines()[1:]]


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan


class Workload:
    name = ""
    rate_metric = ""      # work done per second of the timed section, by name
    key_artifacts: tuple[str, ...] = ()   # glob patterns whose digests the report lists
    # calibration parts that do the same kind of work on the same threads (see calibrate.py)
    calibration: tuple[str, ...] = ("interpreter", "small_numpy", "vector")

    def __init__(self, seed: int, smoke: bool, out: str):
        self.sizes = SMOKE_SIZES if smoke else SIZES
        self.cfg = run_config(seed, self.sizes[self.name])
        self.out = out

    @property
    def ops_per_rep(self) -> int:
        raise NotImplementedError

    @property
    def work_per_rep(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        """Fixture build done before timing starts."""

    def steps(self) -> list:
        """The timed section: the stage calls, in order, as zero-argument callables."""
        raise NotImplementedError

    def timed(self) -> None:
        for step in self.steps():
            step()

    def check(self, scratch: str) -> Outcome:
        """Check the outputs of one repetition; ``scratch`` lies outside the pipeline output."""
        raise NotImplementedError

    def _setup_teacher(self) -> None:
        pipeline.stage_gen_data(self.cfg, self.out)
        pipeline.stage_train_teacher(self.cfg.with_overrides(**self.sizes["setup_teacher"]),
                                     self.out)

    def _path(self, *parts: str) -> str:
        return os.path.join(self.out, *parts)


class TeacherWorkload(Workload):
    """Data generation and DQN training at the default network, batch and buffer."""

    name = "teacher"
    rate_metric = "env_steps_per_s"
    key_artifacts = ("checkpoints/teacher.ckpt", "checkpoints/replay.buf",
                     "reports/teacher_loss.csv")
    calibration = ("interpreter", "blas", "stream")
    ops_per_rep = 1

    @property
    def work_per_rep(self) -> int:
        return self.cfg.episodes * self.cfg.horizon_steps

    def steps(self) -> list:
        return [lambda: pipeline.stage_gen_data(self.cfg, self.out),
                lambda: pipeline.stage_train_teacher(self.cfg, self.out)]

    def check(self, scratch: str) -> Outcome:
        outcome = Outcome(1)
        losses = _read_csv_column(self._path("reports", "teacher_loss.csv"), 1)
        if not losses or not all(map(math.isfinite, losses)):
            outcome.fail({0}, "teacher loss curve is empty or has a non-finite loss")
        ckpt = self._path("checkpoints", "teacher.ckpt")
        agent, stats = teacher.load_checkpoint(ckpt)
        copy = os.path.join(scratch, "teacher.ckpt")
        teacher.save_checkpoint(agent, stats, copy)
        if sha256_of(copy) != sha256_of(ckpt):
            outcome.fail({0}, "checkpoint does not round-trip through load_checkpoint")
        profiles = load_profiles(self._path("profiles.csv"))
        cost = evalkit.mean_daily_cost(evalkit.TeacherPolicy(agent), profiles,
                                       self.cfg.battery(), self.cfg.tariff(), stats,
                                       self.cfg.initial_soc)
        if not math.isfinite(cost):
            outcome.fail({0}, "greedy teacher cost is not finite")
        outcome.quality = {"dqn_cost_eur": cost}
        return outcome


class DistillWorkload(Workload):
    """Five seeded students at depth 2 and at depth 3 from a set-up teacher."""

    name = "distill"
    rate_metric = "student_updates_per_s"
    key_artifacts = ("checkpoints/teacher.ckpt", "students/dataset.bin",
                     "students/*.tree.json", "students/summary_d*.json")

    @property
    def ops_per_rep(self) -> int:
        return len(DEPTHS) * len(self.cfg.seeds)

    @property
    def work_per_rep(self) -> int:
        teacher_cfg = self.cfg.with_overrides(**self.sizes["setup_teacher"])
        rows = min(teacher_cfg.episodes * teacher_cfg.horizon_steps, teacher_cfg.buffer_size)
        batches = math.ceil(rows / min(self.cfg.student_batch_size, rows))
        return self.ops_per_rep * self.cfg.student_epochs * batches

    def setup(self) -> None:
        self._setup_teacher()

    def steps(self) -> list:
        return [lambda depth=depth: pipeline.stage_distill(self.cfg, self.out, depth=depth)
                for depth in DEPTHS]

    def check(self, scratch: str) -> Outcome:
        outcome = Outcome(self.ops_per_rep)
        profiles = load_profiles(self._path("profiles.csv"))
        stats = NormalizationStats.from_profiles(profiles)
        costs = {depth: [] for depth in DEPTHS}
        agreements = []
        for depth in DEPTHS:
            with open(self._path("students", f"summary_d{depth}.json"), encoding="utf-8") as fh:
                agreement = {s["seed"]: s["teacher_agreement"] for s in json.load(fh)["seeds"]}
            for seed in self.cfg.seeds:
                op = (depth, seed)
                stem = self._path("students", f"ddt_d{depth}_s{seed}")
                try:
                    with open(stem + ".tree.json", encoding="utf-8") as fh:
                        text = fh.read()
                    tree = tree_from_json(text)
                    if tree_to_json(tree, FEATURE_NAMES, ACTION_NAMES) != text:
                        outcome.fail({op}, f"{stem}.tree.json does not re-import losslessly")
                    with open(stem + ".soft.json", encoding="utf-8") as fh:
                        soft = json.load(fh)
                    params = TreeParams(depth, np.array(soft["feature_weights"]),
                                        np.array(soft["thresholds"]),
                                        np.array(soft["leaf_weights"]))
                    if tree_to_json(crispify(params), FEATURE_NAMES, ACTION_NAMES) != text:
                        outcome.fail({op}, f"crispifying {stem}.soft.json does not give its tree")
                    cost = evalkit.mean_daily_cost(evalkit.CrispTreePolicy(tree), profiles,
                                                   self.cfg.battery(), self.cfg.tariff(),
                                                   stats, self.cfg.initial_soc)
                    if not math.isfinite(cost):
                        outcome.fail({op}, f"student {stem} has a non-finite cost")
                    costs[depth].append(cost)
                    agreements.append(agreement[seed])
                except Exception as exc:  # a broken artifact fails its student, not the run
                    outcome.fail({op}, f"student {stem}: {type(exc).__name__}: {exc}")
        outcome.quality = {
            "ddt2_cost_eur": _mean(costs[2]),
            "ddt3_cost_eur": _mean(costs[3]),
            "teacher_agreement": _mean(agreements),
        }
        return outcome


class EvaluateWorkload(Workload):
    """RBC, teacher and ten students over a 365-day year, the DP oracle, and heatmaps."""

    name = "evaluate"
    rate_metric = "policy_days_per_s"
    key_artifacts = ("checkpoints/teacher.ckpt", "students/*.tree.json",
                     "reports/comparison*", "reports/dp_oracle.csv", "heatmaps/summary.json")

    @property
    def ops_per_rep(self) -> int:
        policies = 2 + len(DEPTHS) * len(self.cfg.seeds)
        return (policies + 1) * self.cfg.days   # policy-days plus oracle-days

    work_per_rep = ops_per_rep

    def setup(self) -> None:
        self._setup_teacher()
        for depth in DEPTHS:
            pipeline.stage_distill(self.cfg, self.out, depth=depth)

    def steps(self) -> list:
        return [lambda: pipeline.stage_evaluate(self.cfg, self.out, depths=DEPTHS),
                lambda: pipeline.stage_heatmap(self.cfg, self.out, depths=DEPTHS,
                                               seeds=self.cfg.seeds)]

    def _policies(self, stats):
        battery = self.cfg.battery()
        agent, _ = teacher.load_checkpoint(self._path("checkpoints", "teacher.ckpt"))
        policies = [("rbc", 0, evalkit.RbcPolicy(battery, stats)),
                    ("dqn", self.cfg.teacher_seed, evalkit.TeacherPolicy(agent))]
        for depth in DEPTHS:
            for seed in self.cfg.seeds:
                path = self._path("students", f"ddt_d{depth}_s{seed}.tree.json")
                with open(path, encoding="utf-8") as fh:
                    tree = tree_from_json(fh.read())
                policies.append((f"ddt{depth}", seed,
                                 evalkit.CrispTreePolicy(tree, f"ddt{depth}")))
        return policies

    def check(self, scratch: str) -> Outcome:
        outcome = Outcome(self.ops_per_rep)
        profiles = load_profiles(self._path("profiles.csv"))
        stats = NormalizationStats.from_profiles(profiles)
        days = range(len(profiles))
        with open(self._path("reports", "comparison.json"), encoding="utf-8") as fh:
            comparison = json.load(fh)
        stage_means = {(r["policy"], r["seed"]): r["mean_daily_cost_eur"]
                       for r in comparison["rows"]}
        oracle = _read_csv_column(self._path("reports", "dp_oracle.csv"), 1)
        if len(oracle) != len(profiles):
            outcome.fail({("dp", d) for d in days}, "dp_oracle.csv has the wrong day count")
        for d, cost in zip(days, oracle):
            if not math.isfinite(cost):
                outcome.fail({("dp", d)}, f"oracle cost of day {d} is not finite")

        violations, worst = 0, 0.0
        for name, seed, policy in self._policies(stats):
            costs = [evalkit.run_episode(policy, day, self.cfg.battery(), self.cfg.tariff(),
                                         stats, self.cfg.initial_soc).total_cost_eur
                     for day in profiles]
            for d, cost in zip(days, costs):
                if not math.isfinite(cost):
                    outcome.fail({(name, seed, d)}, f"{name} seed {seed} day {d}: cost {cost}")
            mean, stage_mean = float(np.mean(costs)), stage_means.get((name, seed))
            if stage_mean != mean and not (stage_mean is not None and math.isnan(stage_mean)
                                           and math.isnan(mean)):
                outcome.fail({(name, seed, d) for d in days},
                             f"{name} seed {seed}: stage mean disagrees with its daily rollouts")
            if policy.discrete:
                for bound, cost in zip(oracle, costs):
                    excess = bound - cost
                    if excess > ORACLE_TOLERANCE_EUR:
                        violations += 1
                        worst = max(worst, excess)
        means = {a["policy"]: a["mean"] for a in comparison["aggregates"]}
        outcome.quality = {
            "oracle_violations": violations,
            "oracle_worst_excess_eur": worst,
            **{f"{policy}_cost_eur": means.get(policy, math.nan)
               for policy in ("rbc", "dqn", "ddt2", "ddt3")},
            "dp_cost_eur": comparison["dp_mean"],
        }
        return outcome


WORKLOADS = {w.name: w for w in (TeacherWorkload, DistillWorkload, EvaluateWorkload)}
