"""Evaluation harness: rollouts, cost comparison, a DP oracle, and heatmaps.

Every policy here is deterministic at evaluation time and decides for a
whole batch of normalized states at once. Discrete policies return action
indices, which are checked against the level set; the rule-based controller
returns continuous signals. A rollout advances every day of a day set
together through one ``HomeEnv``, the environment the teacher trains in:
one batched decision and one env step per hour.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dataio import DayProfile, NormalizationStats
from .ddt import CrispTree, crisp_predict
from .diffmath import dense_forward_batch
from .envsim import (
    ACTION_NAMES,
    BatteryParams,
    HomeEnv,
    TariffParams,
    aggregate_power,
    battery_update,
    capacity_cost,
    energy_cost,
    rbc_action,
)
from .errors import ConfigError
from .teacher import TeacherAgent


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------
#
# ``decide(x, demand_kw, pv_kw)`` maps an (n, 5) matrix of normalized states
# to n decisions. Rollouts also pass the raw demand and PV (kW) of each row;
# heatmaps, which only have normalized coordinates, do not, so they render the
# discrete policies, which read ``x`` alone.

class TeacherPolicy:
    """Greedy argmin over the teacher's online Q-network; the forward runs in
    fixed row blocks, so a heatmap panel of thousands of rows is one call."""

    discrete = True

    def __init__(self, agent: TeacherAgent, policy_id: str = "dqn"):
        self.agent = agent
        self.policy_id = policy_id

    def decide(self, x: np.ndarray, demand_kw=None, pv_kw=None) -> np.ndarray:
        # np.argmin resolves ties to the lowest index, as the online teacher does
        return np.argmin(dense_forward_batch(self.agent.online_net, x), axis=1)


class CrispTreePolicy:
    """Hardened decision tree over the normalized feature vector."""

    discrete = True

    def __init__(self, tree: CrispTree, policy_id: str = "ddt"):
        self.tree = tree
        self.policy_id = policy_id

    def decide(self, x: np.ndarray, demand_kw=None, pv_kw=None) -> np.ndarray:
        return crisp_predict(self.tree, x)


class RbcPolicy:
    """Built-in battery controller; emits a continuous signal in [-1, 1] from
    the raw demand and PV of a rollout."""

    discrete = False

    def __init__(self, battery: BatteryParams, stats: NormalizationStats,
                 policy_id: str = "rbc"):
        self.battery = battery
        self.stats = stats
        self.policy_id = policy_id

    def decide(self, x: np.ndarray, demand_kw, pv_kw) -> np.ndarray:
        return rbc_action(demand_kw, pv_kw, self.battery)


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    hour: int
    energy_kwh: float
    action: float
    battery_power_kw: float
    realized_power_kw: float
    cost_eur: float


@dataclass
class EpisodeReport:
    day_label: str
    policy_id: str
    seed: int
    total_cost_eur: float
    energy_cost_eur: float
    capacity_cost_eur: float
    trace: list[TraceStep] = field(default_factory=list)


@dataclass
class Rollout:
    """One policy over a day set: per-day totals and (days, hours) traces."""

    policy_id: str
    day_labels: list[str]
    total_cost_eur: np.ndarray       # (days,)
    energy_cost_eur: np.ndarray      # (days,)
    capacity_cost_eur: np.ndarray    # (days,)
    energy_kwh: np.ndarray           # (days, hours): stored energy as the hour starts
    action: np.ndarray               # (days, hours): charge signal applied
    battery_power_kw: np.ndarray     # (days, hours): realized battery power
    realized_power_kw: np.ndarray    # (days, hours): aggregate grid power
    cost_eur: np.ndarray             # (days, hours)

    def episode(self, d: int, seed: int = 0) -> EpisodeReport:
        """Day ``d`` as a one-day report with its hour-by-hour trace."""
        columns = (self.energy_kwh, self.action, self.battery_power_kw,
                   self.realized_power_kw, self.cost_eur)
        trace = [TraceStep(hour, *row)
                 for hour, row in enumerate(zip(*(c[d].tolist() for c in columns)))]
        return EpisodeReport(self.day_labels[d], self.policy_id, seed,
                             float(self.total_cost_eur[d]), float(self.energy_cost_eur[d]),
                             float(self.capacity_cost_eur[d]), trace)


def rollout(policy, days: list[DayProfile], battery: BatteryParams, tariff: TariffParams,
            stats: NormalizationStats, initial_soc: float = 0.5) -> Rollout:
    """Roll every day under the policy at once, one hour at a time.

    All days step together through one ``HomeEnv``: each hour makes one
    batched decision and one env step. The hours are summed per day in
    order, so every number equals rolling each day on its own.
    """
    env = HomeEnv(battery, tariff, stats)
    x = env.reset(days, initial_soc)
    levels = np.array(battery.action_levels)
    totals = [np.zeros(len(days)) for _ in range(3)]
    traces = [np.empty((len(days), tariff.horizon_steps)) for _ in range(5)]
    for t in range(tariff.horizon_steps):
        decision = policy.decide(x, env.demand_kw, env.pv_kw)
        if policy.discrete:
            if decision.dtype.kind not in "iu" or decision.min() < 0 \
                    or decision.max() >= len(levels):
                raise ValueError(f"policy {policy.policy_id!r} chose an action index "
                                 f"outside [0, {len(levels)})")
            signal = levels[decision]
        else:
            signal = decision
        energy = env.energy_kwh
        out = env.step(signal)
        for total, term in zip(totals, (out.cost_eur, out.energy_cost_eur,
                                        out.capacity_cost_eur)):
            total += term
        for trace, column in zip(traces, (energy, signal, out.battery_power_kw,
                                          out.realized_power_kw, out.cost_eur)):
            trace[:, t] = column
        x = out.next_state
    return Rollout(policy.policy_id, [d.label for d in days], *totals, *traces)


def run_episode(policy, day: DayProfile, battery: BatteryParams, tariff: TariffParams,
                stats: NormalizationStats, initial_soc: float = 0.5,
                seed: int = 0) -> EpisodeReport:
    """Roll one full day under the policy: the one-day case of ``rollout``."""
    return rollout(policy, [day], battery, tariff, stats, initial_soc).episode(0, seed)


def mean_daily_cost(policy, days: list[DayProfile], battery, tariff, stats,
                    initial_soc: float = 0.5) -> float:
    return float(np.mean(rollout(policy, days, battery, tariff, stats,
                                 initial_soc).total_cost_eur))


# ---------------------------------------------------------------------------
# DP oracle
# ---------------------------------------------------------------------------

# Days per block of the oracle's backward induction. A block holds two
# (days, actions, states) float temporaries per hour: at 8 days and the
# default lattice's widest hour (2,021 states) 650 KB each, whatever the
# day count. Larger blocks run faster but raise the evaluate peak RSS.
DP_BLOCK_DAYS = 8


@lru_cache(maxsize=8)
def _reachable_lattice(battery: BatteryParams, tariff: TariffParams,
                       start_kwh: float) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Every stored energy the env can reach from ``start_kwh`` under the action
    levels, hour by hour, built with the env's own ``battery_update`` (one
    array call per hour).

    Entry ``t`` is (next, powers, at), action-major. ``next`` is
    (n_actions, n_states_t): the index of the next state among hour
    ``t + 1``'s sorted unique energies. ``powers`` holds the hour's distinct
    realized battery powers, told apart by their float64 bits so that -0.0
    and +0.0 stay distinct, and ``at`` (n_actions, n_states_t) indexes the
    power each (action, state) realizes. Hour 0 has the single state
    ``start_kwh``. None of it depends on the day's prices or loads.
    """
    energies = np.array([start_kwh])
    levels = np.array(battery.action_levels)[:, None]
    hours = []
    for _ in range(tariff.horizon_steps):
        # (next energy, realized power) per (action, state), one array step
        moves, power, _ = battery_update(energies, levels, battery, tariff.timestep_hours)
        energies, nxt = np.unique(moves.ravel(), return_inverse=True)
        bits, at = np.unique(power.ravel().view(np.int64), return_inverse=True)
        # the tables stay cached, so each index takes the smallest type that fits
        nxt = nxt.astype(np.min_scalar_type(len(energies))).reshape(moves.shape)
        at = at.astype(np.min_scalar_type(len(bits))).reshape(moves.shape)
        tables = (nxt, bits.view(np.float64), at)
        for table in tables:
            table.setflags(write=False)
        hours.append(tables)
    return tuple(hours)


def dp_optimal_cost(days: list[DayProfile], battery: BatteryParams, tariff: TariffParams,
                    initial_soc: float = 0.5) -> np.ndarray:
    """Exact minimum cost of each day over all its discrete-action sequences.

    Backward induction over the stored energies the env can actually reach
    (``_reachable_lattice``): each hour's value is the best step cost plus
    the next hour's value at the state the action leads to. Every transition
    and cost term comes from the ``envsim`` functions the env itself calls.

    The days go through in blocks of ``DP_BLOCK_DAYS``. Per hour, a block
    prices only the hour's distinct realized powers, as a (days, powers)
    array, gathers them to (days, actions, states), adds the next hour's
    values in place and takes the minimum over the actions. Each day's
    arithmetic is the same as inducting it alone, so the costs are too, bit
    for bit; memory stays at a block's few (days, actions, states) arrays,
    however many days there are.
    """
    if not days:
        raise ConfigError("dp_optimal_cost needs at least one day; the day list is empty")
    if not (0.0 <= initial_soc <= 1.0):
        raise ConfigError(f"initial_soc must be in [0, 1], got {initial_soc}")
    lattice = _reachable_lattice(battery, tariff, initial_soc * battery.capacity_kwh)
    n_last = int(lattice[-1][0].max()) + 1
    costs = np.empty(len(days))
    for lo in range(0, len(days), DP_BLOCK_DAYS):
        block = days[lo:lo + DP_BLOCK_DAYS]
        prices, demand, pv = (np.stack([getattr(d, name) for d in block])
                              for name in ("prices_eur_per_kwh", "demand_kw", "pv_kw"))
        value = np.zeros((len(block), n_last))      # nothing is owed after the last hour
        for t in range(tariff.horizon_steps - 1, -1, -1):
            nxt, powers, at = lattice[t]
            p_agg = aggregate_power(demand[:, t, None], pv[:, t, None], powers)
            step = (energy_cost(p_agg, prices[:, t, None], tariff)
                    + capacity_cost(p_agg, tariff))
            total = np.take(step, at, axis=1)
            total += np.take(value, nxt, axis=1)
            value = total.min(axis=1)
        costs[lo:lo + len(block)] = value[:, 0]
    return costs


# ---------------------------------------------------------------------------
# Policy comparison
# ---------------------------------------------------------------------------

@dataclass
class PolicyGroup:
    """A named family of policies, one per seed (a single-entry list is fine)."""

    name: str
    members: list[tuple[int, object]]


@dataclass
class ComparisonResult:
    rows: list[dict]          # per (policy, seed): mean daily cost
    aggregates: list[dict]    # per policy: mean/min/quartiles + improvement vs baseline
    baseline: str
    first_day: dict[str, EpisodeReport]   # per policy: its first member on the first day

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("policy,seed,mean_daily_cost_eur\n")
        for r in self.rows:
            out.write(f"{r['policy']},{r['seed']},{r['mean_daily_cost_eur']!r}\n")
        return out.getvalue()

    def aggregates_csv(self) -> str:
        cols = ["policy", "mean", "min", "q1", "median", "q3", "max", "improvement_vs_baseline_pct"]
        out = io.StringIO()
        out.write(",".join(cols) + "\n")
        for a in self.aggregates:
            out.write(",".join(repr(a[c]) if isinstance(a[c], float) else str(a[c]) for c in cols))
            out.write("\n")
        return out.getvalue()

    def aggregate(self, name: str) -> dict:
        for a in self.aggregates:
            if a["policy"] == name:
                return a
        raise KeyError(name)


def compare_policies(groups: list[PolicyGroup], days: list[DayProfile], battery, tariff,
                     stats, initial_soc: float = 0.5, baseline: str = "rbc") -> ComparisonResult:
    """Mean daily cost per policy and seed, with quartile aggregates per policy."""
    if not groups or not days:
        raise ConfigError("need at least one policy group and one day")
    rows = []
    per_group: dict[str, list[float]] = {}
    first_day: dict[str, EpisodeReport] = {}
    for group in groups:
        costs = []
        for seed, policy in group.members:
            run = rollout(policy, days, battery, tariff, stats, initial_soc)
            c = float(np.mean(run.total_cost_eur))
            rows.append({"policy": group.name, "seed": seed, "mean_daily_cost_eur": c})
            costs.append(c)
            if group.name not in first_day:
                first_day[group.name] = run.episode(0, seed)
        per_group[group.name] = costs
    base_mean = float(np.mean(per_group[baseline])) if baseline in per_group else None
    aggregates = []
    for group in groups:
        costs = np.array(per_group[group.name])
        q1, med, q3 = (float(q) for q in np.percentile(costs, [25, 50, 75]))
        mean = float(costs.mean())
        improvement = (
            float((base_mean - mean) / base_mean * 100.0) if base_mean else 0.0
        )
        aggregates.append({
            "policy": group.name, "mean": mean, "min": float(costs.min()),
            "q1": q1, "median": med, "q3": q3, "max": float(costs.max()),
            "improvement_vs_baseline_pct": improvement,
        })
    return ComparisonResult(rows, aggregates, baseline, first_day)


# ---------------------------------------------------------------------------
# Heatmaps
# ---------------------------------------------------------------------------

@dataclass
class HeatmapGrid:
    policy_id: str
    soc_axis: np.ndarray
    price_axis: np.ndarray
    demand_level: float
    fixed_hour_norm: float
    fixed_pv_norm: float
    actions: np.ndarray       # (len(soc_axis), len(price_axis)) int


def policy_heatmap(policy, soc_axis: np.ndarray, price_axis: np.ndarray,
                   demand_levels, fixed_hour_norm: float = 0.5,
                   fixed_pv_norm: float = 0.0) -> list[HeatmapGrid]:
    """Chosen action over a (state-of-charge x price) grid, one panel per demand level.

    All coordinates are in normalized feature space, matching what the
    policies consume directly; each panel is one batched decision of a
    discrete policy (the teacher or a tree).
    """
    soc_axis = np.asarray(soc_axis, dtype=float)
    price_axis = np.asarray(price_axis, dtype=float)
    if soc_axis.size == 0 or price_axis.size == 0:
        raise ConfigError("heatmap grids must be non-empty")
    grids = []
    for demand in demand_levels:
        x = np.empty((soc_axis.size, price_axis.size, 5))
        x[...] = (fixed_hour_norm, 0.0, 0.0, demand, fixed_pv_norm)
        x[..., 1] = soc_axis[:, None]
        x[..., 2] = price_axis
        actions = policy.decide(x.reshape(-1, 5))
        grids.append(HeatmapGrid(policy.policy_id, soc_axis, price_axis, float(demand),
                                 fixed_hour_norm, fixed_pv_norm,
                                 actions.reshape(soc_axis.size, price_axis.size)))
    return grids


def count_action_regions(actions: np.ndarray) -> int:
    """Connected same-action regions under 4-neighbour adjacency."""
    seen = np.zeros(actions.shape, dtype=bool)
    regions = 0
    rows, cols = actions.shape
    for i in range(rows):
        for j in range(cols):
            if seen[i, j]:
                continue
            regions += 1
            stack = [(i, j)]
            seen[i, j] = True
            label = actions[i, j]
            while stack:
                a, b = stack.pop()
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    na, nb = a + da, b + db
                    if 0 <= na < rows and 0 <= nb < cols and not seen[na, nb] \
                            and actions[na, nb] == label:
                        seen[na, nb] = True
                        stack.append((na, nb))
    return regions


def heatmap_to_csv(grid: HeatmapGrid) -> str:
    out = io.StringIO()
    out.write("soc\\price," + ",".join(repr(float(p)) for p in grid.price_axis) + "\n")
    for i, soc in enumerate(grid.soc_axis):
        out.write(repr(float(soc)) + "," + ",".join(str(int(a)) for a in grid.actions[i]) + "\n")
    return out.getvalue()


_SVG_COLORS = ("#c0392b", "#e67e22", "#bdc3c7", "#52be80", "#1e8449")


def heatmap_to_svg(grid: HeatmapGrid, action_names=ACTION_NAMES, cell: int = 10) -> str:
    """Self-contained SVG rendering with a small legend; no external assets."""
    rows, cols = grid.actions.shape
    legend_h = 18 * len(action_names) + 10
    width, height = cols * cell + 120, max(rows * cell + 40, legend_h + 40)
    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
    )
    title = (f"{grid.policy_id}: demand={grid.demand_level:.2f} "
             f"hour={grid.fixed_hour_norm:.2f} pv={grid.fixed_pv_norm:.2f}")
    out.write(f'<text x="4" y="14" font-size="11">{title}</text>\n')
    for i in range(rows):
        for j in range(cols):
            color = _SVG_COLORS[grid.actions[i, j] % len(_SVG_COLORS)]
            # soc grows upward: last row at the top
            y = 24 + (rows - 1 - i) * cell
            out.write(f'<rect x="{j * cell}" y="{y}" width="{cell}" height="{cell}" '
                      f'fill="{color}"/>\n')
    for k, name in enumerate(action_names):
        y = 34 + 18 * k
        out.write(f'<rect x="{cols * cell + 8}" y="{y - 9}" width="12" height="12" '
                  f'fill="{_SVG_COLORS[k % len(_SVG_COLORS)]}"/>\n')
        out.write(f'<text x="{cols * cell + 24}" y="{y}" font-size="10">{name}</text>\n')
    out.write("</svg>\n")
    return out.getvalue()


def episode_trace_csv(report: EpisodeReport) -> str:
    out = io.StringIO()
    out.write("hour,energy_kwh,action_signal,battery_power_kw,realized_power_kw,cost_eur\n")
    for s in report.trace:
        out.write(f"{s.hour},{s.energy_kwh!r},{s.action!r},{s.battery_power_kw!r},"
                  f"{s.realized_power_kw!r},{s.cost_eur!r}\n")
    return out.getvalue()
