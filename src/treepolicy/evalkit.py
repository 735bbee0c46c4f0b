"""Evaluation harness: rollouts, cost comparison, a DP oracle, and heatmaps.

Every policy here is deterministic at evaluation time. Discrete policies
return an action index that goes through the environment's validated step;
the rule-based controller returns a continuous signal and bypasses the
index check by design.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dataio import DayProfile, NormalizationStats
from .ddt import CrispTree, crisp_predict
from .diffmath import dense_forward
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

class TeacherPolicy:
    """Greedy argmin over the teacher's online Q-network."""

    discrete = True

    def __init__(self, agent: TeacherAgent, policy_id: str = "dqn"):
        self.agent = agent
        self.policy_id = policy_id

    def act(self, state) -> int:
        return self.action_index_normalized(state.normalized)

    def action_index_normalized(self, x: np.ndarray) -> int:
        return int(np.argmin(dense_forward(self.agent.online_net, x)))


class CrispTreePolicy:
    """Hardened decision tree over the normalized feature vector."""

    discrete = True

    def __init__(self, tree: CrispTree, policy_id: str = "ddt"):
        self.tree = tree
        self.policy_id = policy_id

    def act(self, state) -> int:
        return crisp_predict(self.tree, state.normalized)

    def action_index_normalized(self, x: np.ndarray) -> int:
        return crisp_predict(self.tree, x)


class RbcPolicy:
    """Built-in battery controller; emits a continuous signal in [-1, 1]."""

    discrete = False

    def __init__(self, battery: BatteryParams, stats: NormalizationStats,
                 policy_id: str = "rbc"):
        self.battery = battery
        self.stats = stats
        self.policy_id = policy_id

    def act(self, state) -> float:
        return rbc_action(state.demand_kw, state.pv_kw, self.battery)

    def action_index_normalized(self, x: np.ndarray) -> int:
        # continuous signal snapped to the nearest discrete level for display
        demand = self.stats.denormalize_feature("demand", float(x[3]))
        pv = self.stats.denormalize_feature("pv", float(x[4]))
        u = rbc_action(demand, pv, self.battery)
        levels = np.asarray(self.battery.action_levels)
        return int(np.argmin(np.abs(levels - u)))


class ConstantPolicy:
    """Always the same action index; handy as an evaluation floor."""

    discrete = True

    def __init__(self, action_index: int, policy_id: str | None = None):
        self.action_index = action_index
        self.policy_id = policy_id or f"const{action_index}"

    def act(self, state) -> int:
        return self.action_index

    def action_index_normalized(self, x: np.ndarray) -> int:
        return self.action_index


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


def run_episode(policy, day: DayProfile, battery: BatteryParams, tariff: TariffParams,
                stats: NormalizationStats, initial_soc: float = 0.5,
                seed: int = 0) -> EpisodeReport:
    """Roll one full day under the policy, accumulating both cost terms."""
    env = HomeEnv(battery, tariff, stats)
    state = env.reset(day, initial_soc)
    total = e_total = c_total = 0.0
    trace: list[TraceStep] = []
    for _ in range(tariff.horizon_steps):
        action = policy.act(state)
        if policy.discrete:
            outcome = env.step(action)
            signal = battery.action_levels[action]
        else:
            outcome = env.step_signal(action)
            signal = float(action)
        total += outcome.cost_eur
        e_total += outcome.energy_cost_eur
        c_total += outcome.capacity_cost_eur
        trace.append(TraceStep(state.hour, state.energy_kwh, signal,
                               outcome.battery_power_kw, outcome.realized_power_kw,
                               outcome.cost_eur))
        state = outcome.next_state
    return EpisodeReport(day.label, policy.policy_id, seed, total, e_total, c_total, trace)


def mean_daily_cost(policy, days: list[DayProfile], battery, tariff, stats,
                    initial_soc: float = 0.5, seed: int = 0) -> float:
    costs = [run_episode(policy, d, battery, tariff, stats, initial_soc, seed).total_cost_eur
             for d in days]
    return float(np.mean(costs))


# ---------------------------------------------------------------------------
# DP oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _reachable_lattice(battery: BatteryParams, tariff: TariffParams,
                       start_kwh: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every stored energy the env can reach from ``start_kwh`` under the action
    levels, hour by hour, built with the env's own ``battery_update``.

    Entry ``t`` is (next, power), both (n_states_t, n_actions): the index of
    the next state among hour ``t + 1``'s sorted unique energies, and the
    realized battery power. Hour 0 has the single state ``start_kwh``. None
    of it depends on the day's prices or loads.
    """
    energies = [start_kwh]
    hours = []
    for _ in range(tariff.horizon_steps):
        shape = (len(energies), len(battery.action_levels))
        # (next energy, realized power) per (state, action), filled without
        # holding a Python object per move
        moves = np.fromiter((battery_update(e, u, battery, tariff.timestep_hours)[:2]
                             for e in energies for u in battery.action_levels),
                            np.dtype((float, 2)), count=shape[0] * shape[1])
        reached, nxt = np.unique(moves[:, 0], return_inverse=True)
        # the tables stay cached, so the index takes the smallest type that fits
        nxt = nxt.astype(np.min_scalar_type(len(reached))).reshape(shape)
        tables = (nxt, moves[:, 1].reshape(shape).copy())
        for table in tables:
            table.setflags(write=False)
        hours.append(tables)
        energies = reached.tolist()
    return tuple(hours)


def dp_optimal_cost(day: DayProfile, battery: BatteryParams, tariff: TariffParams,
                    initial_soc: float = 0.5) -> float:
    """Exact minimum daily cost over all discrete-action sequences.

    Backward induction over the stored energies the env can actually reach
    (``_reachable_lattice``): each hour's value is the best step cost plus
    the next hour's value at the state the action leads to. Every transition
    and cost term comes from the ``envsim`` functions the env itself calls.
    """
    if not (0.0 <= initial_soc <= 1.0):
        raise ConfigError(f"initial_soc must be in [0, 1], got {initial_soc}")
    lattice = _reachable_lattice(battery, tariff, initial_soc * battery.capacity_kwh)
    value = np.zeros(int(lattice[-1][0].max()) + 1)     # nothing is owed after the last hour
    for t in range(tariff.horizon_steps - 1, -1, -1):
        nxt, power = lattice[t]
        p_agg = aggregate_power(float(day.demand_kw[t]), float(day.pv_kw[t]), power)
        step = (energy_cost(p_agg, float(day.prices_eur_per_kwh[t]), tariff)
                + capacity_cost(p_agg, tariff))
        value = (step + value[nxt]).min(axis=1)
    return float(value[0])


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
    for group in groups:
        costs = []
        for seed, policy in group.members:
            c = mean_daily_cost(policy, days, battery, tariff, stats, initial_soc, seed)
            rows.append({"policy": group.name, "seed": seed, "mean_daily_cost_eur": c})
            costs.append(c)
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
    return ComparisonResult(rows, aggregates, baseline)


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
    policies consume directly.
    """
    soc_axis = np.asarray(soc_axis, dtype=float)
    price_axis = np.asarray(price_axis, dtype=float)
    if soc_axis.size == 0 or price_axis.size == 0:
        raise ConfigError("heatmap grids must be non-empty")
    grids = []
    for demand in demand_levels:
        actions = np.empty((soc_axis.size, price_axis.size), dtype=np.int64)
        for i, soc in enumerate(soc_axis):
            for j, price in enumerate(price_axis):
                x = np.array([fixed_hour_norm, soc, price, demand, fixed_pv_norm])
                actions[i, j] = policy.action_index_normalized(x)
        grids.append(HeatmapGrid(policy.policy_id, soc_axis, price_axis, float(demand),
                                 fixed_hour_norm, fixed_pv_norm, actions))
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
