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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataio import DaySet, NormalizationStats, csv_text
from .ddt import CrispTree, crisp_predict
from .diffmath import DenseNet, dense_forward_batch
from .envsim import (
    ACTION_NAMES,
    FEATURE_NAMES,
    BatteryParams,
    HomeEnv,
    TariffParams,
    aggregate_power,
    battery_update,
    capacity_cost,
    energy_cost,
    rbc_action,
)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------
#
# ``decide(x, demand_kw, pv_kw)`` maps an (n, 5) matrix of normalized states
# to n decisions. Rollouts also pass the raw demand and PV (kW) of each row;
# heatmaps, which only have normalized coordinates, do not, so they render the
# discrete policies, which read ``x`` alone.

class TeacherPolicy:
    """Greedy argmin over the teacher's Q-network; the forward runs in fixed
    row blocks, so a heatmap panel of thousands of rows is one call."""

    discrete = True

    def __init__(self, net: DenseNet, policy_id: str = "dqn"):
        self.net = net
        self.policy_id = policy_id

    def decide(self, x: np.ndarray, demand_kw=None, pv_kw=None) -> np.ndarray:
        # np.argmin resolves ties to the lowest index, as greedy_action does in training
        return np.argmin(dense_forward_batch(self.net, x), axis=1)


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

# One trace row per hour: the stored energy as the hour starts (kWh), the
# charge signal applied, the realized battery power and the aggregate grid
# power (kW), and the hour's cost (EUR).
TRACE_COLUMNS = ("energy_kwh", "action_signal", "battery_power_kw", "realized_power_kw",
                 "cost_eur")


@dataclass
class EpisodeReport:
    day_label: str
    policy_id: str
    total_cost_eur: float
    trace: list[list[float]]         # per hour, one value per TRACE_COLUMNS entry


@dataclass
class Rollout:
    """One policy over a day set: per-day totals and hour-by-hour traces."""

    policy_id: str
    day_labels: list[str]
    total_cost_eur: np.ndarray       # (days,)
    trace: np.ndarray                # (days, hours, len(TRACE_COLUMNS))

    def episode(self, d: int) -> EpisodeReport:
        """Day ``d`` as a one-day report with its hour-by-hour trace."""
        return EpisodeReport(self.day_labels[d], self.policy_id, float(self.total_cost_eur[d]),
                             self.trace[d].tolist())


def rollout(policy, days: DaySet, battery: BatteryParams, tariff: TariffParams,
            stats: NormalizationStats, initial_soc: float) -> Rollout:
    """Roll every day under the policy at once, one hour at a time.

    All days step together through one ``HomeEnv``: each hour makes one
    batched decision and one env step. The hours are summed per day in
    order, so every number equals rolling each day on its own.
    """
    env = HomeEnv(battery, tariff, stats)
    x = env.reset(days, initial_soc)
    levels = np.array(battery.action_levels)
    total = np.zeros(len(days))
    trace = np.empty((len(days), env.horizon, len(TRACE_COLUMNS)))
    for t in range(env.horizon):
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
        total += out.cost_eur
        for k, column in enumerate((energy, signal, out.battery_power_kw,
                                    out.realized_power_kw, out.cost_eur)):
            trace[:, t, k] = column
        x = out.next_state
    return Rollout(policy.policy_id, list(days.labels), total, trace)


def run_episode(policy, day: DaySet, battery: BatteryParams, tariff: TariffParams,
                stats: NormalizationStats, initial_soc: float) -> EpisodeReport:
    """Roll the one-day set ``day`` under the policy: the one-day case of ``rollout``."""
    return rollout(policy, day, battery, tariff, stats, initial_soc).episode(0)


def mean_daily_cost(policy, days: DaySet, battery, tariff, stats,
                    initial_soc: float) -> float:
    return float(np.mean(rollout(policy, days, battery, tariff, stats,
                                 initial_soc).total_cost_eur))


# ---------------------------------------------------------------------------
# DP oracle
# ---------------------------------------------------------------------------

# Days per block of the oracle's backward induction. Per hour a block holds the
# next hour's values and three (states, days) float arrays: at 16 days and the
# default lattice's widest hour (2,021 states) 260 KB each, whatever the day
# count. Over a 365-day year 16 and 32 days run fastest; 16 peaks at 1.50 MB
# under tracemalloc, 32 at 2.97 MB.
DP_BLOCK_DAYS = 16


@lru_cache(maxsize=8)
def _reachable_lattice(battery: BatteryParams, hours: int,
                       start_kwh: float) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Every stored energy the env can reach from ``start_kwh`` under the action
    levels, for each of ``hours`` hours, built with the env's own
    ``battery_update`` (one array call per hour).

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
    lattice = []
    for _ in range(hours):
        # (next energy, realized power) per (action, state), one array step
        moves, power = battery_update(energies, levels, battery)
        energies, nxt = np.unique(moves.ravel(), return_inverse=True)
        bits, at = np.unique(power.ravel().view(np.int64), return_inverse=True)
        # the tables stay cached, so each index takes the smallest type that fits
        nxt = nxt.astype(np.min_scalar_type(len(energies))).reshape(moves.shape)
        at = at.astype(np.min_scalar_type(len(bits))).reshape(moves.shape)
        tables = (nxt, bits.view(np.float64), at)
        for table in tables:
            table.setflags(write=False)
        lattice.append(tables)
    return tuple(lattice)


def dp_optimal_cost(days: DaySet, battery: BatteryParams, tariff: TariffParams,
                    initial_soc: float) -> np.ndarray:
    """Exact minimum cost of each day over all its discrete-action sequences.

    Backward induction, one hour per row of the days (all of one length), over
    the stored energies the env can reach (``_reachable_lattice``): each hour's
    value is the best step cost plus the next hour's value at the state the
    action leads to. Every transition and cost term comes from ``envsim``.

    The days go through in blocks of ``DP_BLOCK_DAYS``, each day a column of a
    transposed view of the set's (days, hours) arrays. Per
    hour, a block prices only the hour's distinct realized powers, as a
    (powers, days) array; then for each action in order it gathers the step
    costs and the next hour's values to (states, days), adds them and folds
    the sum into a running minimum. That is the sequence of pairwise minima
    a minimum over the action axis takes, so each day's cost is the same as
    inducting it alone, bit for bit; memory stays at a block's few
    (states, days) arrays, however many days there are.
    """
    lattice = _reachable_lattice(battery, days.hours, initial_soc * battery.capacity_kwh)
    n_last = int(lattice[-1][0].max()) + 1
    costs = np.empty(len(days))
    for lo in range(0, len(days), DP_BLOCK_DAYS):
        block = slice(lo, lo + DP_BLOCK_DAYS)
        # (hours, block days) views: row t holds hour t of each day
        prices, demand, pv = (a[block].T for a in (days.prices_eur_per_kwh, days.demand_kw,
                                                   days.pv_kw))
        value = np.zeros((n_last, prices.shape[1]))  # nothing is owed after the last hour
        for t in range(len(lattice) - 1, -1, -1):
            nxt, powers, at = lattice[t]
            p_agg = aggregate_power(demand[t], pv[t], powers[:, None])
            step = energy_cost(p_agg, prices[t], tariff) + capacity_cost(p_agg, tariff)
            best = np.take(step, at[0], axis=0)
            best += np.take(value, nxt[0], axis=0)
            for a in range(1, len(at)):
                total = np.take(step, at[a], axis=0)
                total += np.take(value, nxt[a], axis=0)
                np.minimum(best, total, out=best)
            value = best
        costs[block] = value[0]
    return costs


# ---------------------------------------------------------------------------
# Policy comparison
# ---------------------------------------------------------------------------

BASELINE = "rbc"    # the policy group every improvement is measured against

@dataclass
class PolicyGroup:
    """A named family of policies, one per seed (a single-entry list is fine)."""

    name: str
    members: list[tuple[int, object]]


@dataclass
class ComparisonResult:
    rows: list[dict]          # per (policy, seed): mean daily cost
    aggregates: list[dict]    # per policy: mean/min/quartiles + improvement vs BASELINE
    first_day: dict[str, EpisodeReport]   # per policy: its first member on the first day


def compare_policies(groups: list[PolicyGroup], days: DaySet, battery, tariff,
                     stats, initial_soc: float) -> ComparisonResult:
    """Mean daily cost per policy and seed, with quartile aggregates per policy and
    each policy's improvement over the ``BASELINE`` group (0 without one)."""
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
                first_day[group.name] = run.episode(0)
        per_group[group.name] = costs
    base_mean = float(np.mean(per_group[BASELINE])) if BASELINE in per_group else None
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
    return ComparisonResult(rows, aggregates, first_day)


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


def policy_heatmap(policy, soc_axis: np.ndarray, price_axis: np.ndarray, demand_levels,
                   fixed_hour_norm: float, fixed_pv_norm: float) -> list[HeatmapGrid]:
    """Chosen action over a (state-of-charge x price) grid, one panel per demand level.

    All coordinates are in normalized feature space, matching what the
    policies consume directly; each panel is one batched decision of a
    discrete policy (the teacher or a tree).
    """
    soc_axis = np.asarray(soc_axis, dtype=float)
    price_axis = np.asarray(price_axis, dtype=float)
    grids = []
    for demand in demand_levels:
        x = np.empty((soc_axis.size, price_axis.size, len(FEATURE_NAMES)))
        x[...] = (fixed_hour_norm, 0.0, 0.0, demand, fixed_pv_norm)
        x[..., 1] = soc_axis[:, None]
        x[..., 2] = price_axis
        actions = policy.decide(x.reshape(-1, len(FEATURE_NAMES)))
        grids.append(HeatmapGrid(policy.policy_id, soc_axis, price_axis, float(demand),
                                 fixed_hour_norm, fixed_pv_norm,
                                 actions.reshape(soc_axis.size, price_axis.size)))
    return grids


def count_action_regions(actions: np.ndarray) -> int:
    """Connected same-action regions under 4-neighbour adjacency.

    One array labelling of the panel: every cell starts as its own root, and
    each round hooks the larger root of every equal-neighbour pair that still
    joins two roots under the smaller one, then jumps pointers until every
    cell points at its root. Hooks only ever point at a smaller index, so no
    cycle forms; when no pair joins two roots, each root is one region.
    """
    n = actions.size
    cell = np.arange(n).reshape(actions.shape)
    across = actions[:, 1:] == actions[:, :-1]
    down = actions[1:] == actions[:-1]
    a = np.concatenate((cell[:, :-1][across], cell[:-1][down]))
    b = np.concatenate((cell[:, 1:][across], cell[1:][down]))
    root = np.arange(n)
    while a.size:
        ra, rb = root[a], root[b]
        apart = ra != rb
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        root[np.maximum(ra, rb)] = np.minimum(ra, rb)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    return int(np.count_nonzero(root == np.arange(n)))


def heatmap_to_csv(grid: HeatmapGrid) -> str:
    """A header of the price axis, then one line of actions per state-of-charge row."""
    return csv_text(["soc\\price", *grid.price_axis.tolist()],
                    [[soc, *row] for soc, row in zip(grid.soc_axis.tolist(),
                                                     grid.actions.tolist())])


_SVG_COLORS = ("#c0392b", "#e67e22", "#bdc3c7", "#52be80", "#1e8449")
_SVG_CELL = 10      # side of one grid cell (px)


def heatmap_to_svg(grid: HeatmapGrid) -> str:
    """Self-contained SVG rendering with a small legend; no external assets."""
    rows, cols = grid.actions.shape
    cell = _SVG_CELL
    legend_h = 18 * len(ACTION_NAMES) + 10
    width, height = cols * cell + 120, max(rows * cell + 40, legend_h + 40)
    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
    )
    title = (f"{grid.policy_id}: demand={grid.demand_level:.2f} "
             f"hour={grid.fixed_hour_norm:.2f} pv={grid.fixed_pv_norm:.2f}")
    out.write(f'<text x="4" y="14" font-size="11">{title}</text>\n')
    # A row of rects is one join on the row's y: between[c, j], the piece after
    # column j's y, is the rest of its rect in colour c, then column j + 1's prefix.
    prefix = [f'<rect x="{j * cell}" y="' for j in range(cols)]
    between = np.array([[f'" width="{cell}" height="{cell}" fill="{color}"/>\n' + nxt
                         for nxt in prefix[1:] + [""]] for color in _SVG_COLORS],
                       dtype=object)
    pieces = between[grid.actions % len(_SVG_COLORS), np.arange(cols)].tolist()
    for i, row in enumerate(pieces):
        y = str(24 + (rows - 1 - i) * cell)      # soc grows upward: last row at the top
        out.write(prefix[0] + y + y.join(row))
    for k, name in enumerate(ACTION_NAMES):
        y = 34 + 18 * k
        out.write(f'<rect x="{cols * cell + 8}" y="{y - 9}" width="12" height="12" '
                  f'fill="{_SVG_COLORS[k % len(_SVG_COLORS)]}"/>\n')
        out.write(f'<text x="{cols * cell + 24}" y="{y}" font-size="10">{name}</text>\n')
    out.write("</svg>\n")
    return out.getvalue()
