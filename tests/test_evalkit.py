import io
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from treepolicy import pipeline
from treepolicy.dataio import HOURS, DayProfile, NormalizationStats, RunConfig, build_profiles
from treepolicy.ddt import CrispTree
from treepolicy.diffmath import dense_forward_batch, init_dense
from treepolicy.envsim import (
    ACTION_NAMES,
    BatteryParams,
    aggregate_power,
    battery_update,
    capacity_cost,
    energy_cost,
    rbc_action,
)
from treepolicy.evalkit import (
    DP_BLOCK_DAYS,
    TRACE_COLUMNS,
    CrispTreePolicy,
    HeatmapGrid,
    PolicyGroup,
    RbcPolicy,
    TeacherPolicy,
    compare_policies,
    _SVG_CELL,
    _SVG_COLORS,
    _reachable_lattice,
    count_action_regions,
    dp_optimal_cost,
    heatmap_to_csv,
    heatmap_to_svg,
    mean_daily_cost,
    policy_heatmap,
    rollout,
    run_episode,
)
from treepolicy.teacher import TeacherAgent, greedy_action, save_checkpoint

from conftest import (
    ConstantPolicy,
    battery_step_one,
    bit_patterns,
    crisp_walk_one,
    dp_cost_one,
    rbc_action_one,
    reference_day,
)

BAT = RunConfig().battery()
TAR = RunConfig().tariff()


@pytest.fixture(scope="module")
def evaluate_run(tmp_path_factory, fixture_stats):
    """``stage_evaluate`` over two generated days: rbc and a random dqn, no students."""
    out = tmp_path_factory.mktemp("evaluate")
    cfg = RunConfig(days=2)
    pipeline.stage_gen_data(cfg, str(out))
    save_checkpoint(init_dense([5, 8, 5], np.random.default_rng(0)), fixture_stats,
                    str(out / "checkpoints" / "teacher.ckpt"))
    return out, pipeline.stage_evaluate(cfg, str(out), depths=())


def flat_day(price=0.1, demand=1.0, pv=0.0, hours=HOURS):
    return DayProfile(np.full(hours, price), np.full(hours, demand), np.full(hours, pv), "flat")


def first_hours(day, hours):
    """``day`` cut to its first ``hours`` rows, for an episode of that many steps."""
    return DayProfile(day.prices_eur_per_kwh[:hours], day.demand_kw[:hours], day.pv_kw[:hours],
                      day.label)


class TestRunEpisode:
    def test_idle_policy_matches_summation_oracle(self, fixture_profiles, fixture_stats):
        day = fixture_profiles[0]
        report = run_episode(ConstantPolicy(2, "idle"), day, BAT, TAR, fixture_stats, 0.5)
        expected = 0.0
        for h in range(24):
            p = float(day.demand_kw[h] - day.pv_kw[h])
            price = float(day.prices_eur_per_kwh[h])
            expected += price * p if p >= 0 else 0.25 * price * p
            expected += 0.05 * max(p, 4.0)
        assert report.total_cost_eur == pytest.approx(expected, abs=1e-9)
        assert len(report.trace) == 24
        assert all(len(row) == len(TRACE_COLUMNS) for row in report.trace)

    def test_rbc_on_flat_day_matches_hand_rolled_trace(self):
        # zero PV, flat price, start empty: independent re-implementation of the
        # proportional controller plus the battery integration
        day = flat_day(price=0.1, demand=2.0)
        stats = NormalizationStats.from_profiles([day])
        report = run_episode(RbcPolicy(BAT, stats), day, BAT, TAR, stats, initial_soc=0.0)

        e = 0.0
        expected = 0.0
        for _ in range(24):
            u = rbc_action(2.0, 0.0, BAT)
            assert u == pytest.approx(0.5)  # proportional rule, no grid-only boost
            power = u * 4.0
            new_e = min(e + 0.9 * power, 10.0)
            realized = power if new_e != 10.0 else (10.0 - e) / 0.9
            if new_e == 10.0 and (new_e - e) / 0.9 != power:
                realized = (new_e - e) / 0.9
            p_agg = 2.0 + realized
            expected += 0.1 * p_agg + 0.05 * max(p_agg, 4.0)
            e = new_e
        assert report.total_cost_eur == pytest.approx(expected, abs=1e-9)

    def test_reports_are_deterministic(self, fixture_profiles, fixture_stats):
        day = fixture_profiles[1]
        pol = ConstantPolicy(4)
        a = run_episode(pol, day, BAT, TAR, fixture_stats, 0.5)
        b = run_episode(pol, day, BAT, TAR, fixture_stats, 0.5)
        assert a == b

    def test_trace_csv_well_formed(self, evaluate_run):
        out, res = evaluate_run
        assert sorted(res["comparison"].first_day) == ["dqn", "rbc"]
        for name, report in res["comparison"].first_day.items():
            csv = (out / "reports" / f"trace_{name}_{report.day_label}.csv").read_text()
            lines = csv.strip().split("\n")
            assert csv == "\n".join(lines) + "\n"
            assert len(lines) == 25
            assert lines[0] == ("hour,energy_kwh,action_signal,battery_power_kw,"
                                "realized_power_kw,cost_eur")
            assert lines[1:] == [",".join([str(h)] + [repr(v) for v in row])
                                 for h, row in enumerate(report.trace)]


def random_crisp_tree(depth, rng):
    n_nodes = 2 ** depth - 1
    return CrispTree(depth, tuple(int(f) for f in rng.integers(5, size=n_nodes)),
                     tuple(float(t) for t in rng.uniform(0.2, 0.8, size=n_nodes)),
                     tuple(bool(f) for f in rng.integers(2, size=n_nodes)),
                     tuple(int(a) for a in rng.integers(5, size=2 ** depth)))


def teacher_agent(seed=0):
    return TeacherAgent.create([5, 64, 64, 5], 0.001, 0.99, 0.1, np.random.default_rng(seed))


def policy_and_reference(kind, stats):
    """A policy plus a per-state reference that decides from one normalized
    5-vector and the hour's raw loads the way the scalar code does: (is the
    decision an action index, decide)."""
    if kind.startswith("const"):
        k = int(kind[5:])
        return ConstantPolicy(k), (True, lambda x, demand, pv: k)
    if kind == "rbc":
        return RbcPolicy(BAT, stats), (False, lambda x, demand, pv: rbc_action_one(
            demand, pv, BAT))
    if kind.startswith("ddt"):
        tree = random_crisp_tree(int(kind[3:]), np.random.default_rng(int(kind[3:])))
        return CrispTreePolicy(tree), (True, lambda x, demand, pv: crisp_walk_one(tree, x))
    agent = teacher_agent()
    return TeacherPolicy(agent.online_net), (True, lambda x, demand, pv: greedy_action(agent, x))


def step_through_env(reference, days, stats, initial_soc):
    """Per-day totals and the (days, hours, TRACE_COLUMNS) trace from the scalar
    reference physics, one day and one hour at a time."""
    discrete, decide = reference
    signal = (lambda x, demand, pv: BAT.action_levels[decide(x, demand, pv)]) if discrete \
        else decide
    totals, traces = [], []
    for day in days:
        total = 0.0
        rows = []
        for step in reference_day(signal, day, BAT, TAR, stats, initial_soc):
            total += step.cost_eur
            rows.append((step.energy_kwh, step.signal, step.battery_power_kw,
                         step.realized_power_kw, step.cost_eur))
        totals.append(total)
        traces.append(rows)
    return np.array(totals), np.array(traces)


def assert_bits_equal(a, b):
    """Equal bit for bit: signed zeros and NaN payloads included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestRollout:
    @pytest.mark.parametrize("initial_soc", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["const0", "const1", "const2", "const3", "const4", "rbc",
                                      "ddt1", "ddt2", "ddt3", "dqn"])
    def test_matches_homeenv_stepping(self, fixture_profiles, fixture_stats, kind, initial_soc):
        policy, reference = policy_and_reference(kind, fixture_stats)
        got = rollout(policy, fixture_profiles, BAT, TAR, fixture_stats, initial_soc)
        totals, traces = step_through_env(reference, fixture_profiles, fixture_stats,
                                          initial_soc)
        assert_bits_equal(got.total_cost_eur, totals)
        assert_bits_equal(got.trace, traces)     # every hour of every TRACE_COLUMNS column
        assert got.day_labels == [d.label for d in fixture_profiles]

    @pytest.mark.parametrize("kind", ["const4", "rbc", "ddt2", "dqn"])
    def test_short_days_step_once_per_row(self, fixture_profiles, fixture_stats, kind):
        # the episode length comes from the days: six rows, six steps
        days = [first_hours(day, 6) for day in fixture_profiles]
        policy, reference = policy_and_reference(kind, fixture_stats)
        got = rollout(policy, days, BAT, TAR, fixture_stats, 0.5)
        totals, traces = step_through_env(reference, days, fixture_stats, 0.5)
        assert got.trace.shape == (len(days), 6, len(TRACE_COLUMNS))
        assert_bits_equal(got.total_cost_eur, totals)
        assert_bits_equal(got.trace, traces)

    def test_constant_policies_hit_both_clip_bounds(self, fixture_profiles, fixture_stats):
        empty = rollout(ConstantPolicy(0), fixture_profiles, BAT, TAR, fixture_stats, 0.0)
        full = rollout(ConstantPolicy(4), fixture_profiles, BAT, TAR, fixture_stats, 1.0)
        energy, power = (TRACE_COLUMNS.index(name) for name in ("energy_kwh", "battery_power_kw"))
        assert np.all(empty.trace[..., energy] == 0.0) and np.all(empty.trace[..., power] == 0.0)
        assert np.all(full.trace[..., energy] == BAT.capacity_kwh)
        assert np.all(full.trace[..., power] == 0.0)

    def test_one_day_report_is_that_day_of_the_rollout(self, fixture_profiles, fixture_stats):
        policy = RbcPolicy(BAT, fixture_stats)
        whole = rollout(policy, fixture_profiles, BAT, TAR, fixture_stats, 0.5)
        for d in (0, 5, len(fixture_profiles) - 1):
            assert run_episode(policy, fixture_profiles[d], BAT, TAR,
                               fixture_stats, 0.5) == whole.episode(d)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_action_index_outside_levels_rejected(self, fixture_profiles, fixture_stats, index):
        with pytest.raises(ValueError, match="outside"):
            rollout(ConstantPolicy(index), fixture_profiles[:2], BAT, TAR, fixture_stats, 0.5)


def oracle_days(n):
    """``n`` distinct synthetic days."""
    return build_profiles(RunConfig(days=n))


class TestDpOracle:
    def test_zero_prices_zero_rate_is_free(self):
        day = flat_day(price=0.0, demand=0.0)
        tariff = RunConfig(capacity_rate_eur_per_kw=0.0).tariff()
        assert dp_optimal_cost([day], BAT, tariff, 0.5)[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_prices_hits_capacity_floor(self):
        day = flat_day(price=0.0, demand=1.0)
        # charging only raises the aggregate, so idling at the floor is optimal
        assert dp_optimal_cost([day], BAT, TAR, 0.5)[0] == pytest.approx(24 * 0.05 * 4.0, abs=1e-9)

    def test_one_step_horizon_equals_exhaustive_minimum(self):
        day = flat_day(price=0.2, demand=3.0, pv=1.0, hours=1)
        best = np.inf
        for level in BAT.action_levels:
            power = level * 4.0
            raw = 5.0 + (0.9 * power if power >= 0 else power / 0.9)
            new_e = min(max(raw, 0.0), 10.0)
            delta = new_e - 5.0
            realized = delta / 0.9 if delta >= 0 else delta * 0.9
            p_agg = 3.0 - 1.0 + realized
            cost = (0.2 * p_agg if p_agg >= 0 else 0.05 * p_agg) + 0.05 * max(p_agg, 4.0)
            best = min(best, cost)
        assert dp_optimal_cost([day], BAT, TAR, initial_soc=0.5)[0] == pytest.approx(best, abs=1e-9)

    def test_lower_bounds_all_policies(self, fixture_profiles, fixture_stats):
        days = fixture_profiles[:4]
        for day, dp in zip(days, dp_optimal_cost(days, BAT, TAR, 0.5)):
            for pol in (ConstantPolicy(0), ConstantPolicy(2), ConstantPolicy(4),
                        RbcPolicy(BAT, fixture_stats)):
                cost = run_episode(pol, day, BAT, TAR, fixture_stats, 0.5).total_cost_eur
                assert dp <= cost + 1e-6

    # a block's edges (a day short, exact, a day past, two blocks and a day)
    # and, off those edges, 7, 8, 9 and 17 days
    @pytest.mark.parametrize("n_days", sorted({1, 7, 8, 9, 17, DP_BLOCK_DAYS - 1, DP_BLOCK_DAYS,
                                               DP_BLOCK_DAYS + 1, 2 * DP_BLOCK_DAYS + 1}))
    def test_blocks_match_one_day_at_a_time(self, n_days):
        days = oracle_days(n_days)
        want = [dp_cost_one(day, BAT, TAR, 0.5) for day in days]
        got = dp_optimal_cost(days, BAT, TAR, 0.5)
        assert got.shape == (n_days,)
        assert bit_patterns(got) == bit_patterns(want)

    @pytest.mark.parametrize("tariff, initial_soc, hours", [
        (RunConfig(capacity_rate_eur_per_kw=0.0).tariff(), 0.5, HOURS),
        (TAR, 0.0, HOURS), (TAR, 0.05, HOURS), (TAR, 0.95, HOURS), (TAR, 1.0, HOURS),
        (TAR, 0.5, 6),
    ], ids=["zero-rate", "soc-0", "soc-0.05", "soc-0.95", "soc-1", "six-hours"])
    def test_blocks_match_one_day_at_a_time_across_settings(self, tariff, initial_soc, hours):
        days = [first_hours(day, hours) for day in oracle_days(DP_BLOCK_DAYS + 1)]
        want = [dp_cost_one(day, BAT, tariff, initial_soc) for day in days]
        assert bit_patterns(dp_optimal_cost(days, BAT, tariff, initial_soc)) == bit_patterns(want)

    def test_memory_does_not_grow_with_days(self):
        days = oracle_days(4 * DP_BLOCK_DAYS)
        dp_optimal_cost(days[:1], BAT, TAR, 0.5)  # the cached lattice is not the oracle's to count
        peaks = []
        for n in (DP_BLOCK_DAYS, len(days)):
            tracemalloc.start()
            try:
                dp_optimal_cost(days[:n], BAT, TAR, 0.5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # four times the days add only the 8-byte costs, not another block's arrays
        assert peaks[1] - peaks[0] < 64 * 1024
        # the same 64-day call peaked at 1,727,152 bytes with 8-day blocks of
        # (days, actions, states) arrays; days as columns must need no more
        assert peaks[1] <= 1_727_152

    @pytest.mark.parametrize("battery", [BAT, BatteryParams(7.5, 3.0, 0.95, BAT.action_levels)])
    def test_lattice_matches_scalar_battery_steps(self, battery):
        # each hour's tables rebuild one scalar battery_update per (action, state)
        for start in (0.0, battery.capacity_kwh / 2, battery.capacity_kwh):
            energies = [start]
            for nxt, powers, at in _reachable_lattice(battery, HOURS, start):
                moves = [battery_step_one(e, u, battery)
                         for u in battery.action_levels for e in energies]
                reached = sorted(set(m[0] for m in moves))
                index = {e: i for i, e in enumerate(reached)}
                shape = (len(battery.action_levels), len(energies))
                assert nxt.tolist() == np.reshape([index[m[0]] for m in moves], shape).tolist()
                assert powers[at].tobytes() == np.reshape([m[1] for m in moves], shape).tobytes()
                # one entry per distinct bit pattern, every one of them used
                assert len(set(bit_patterns(powers))) == len(powers)
                assert sorted(set(at.ravel().tolist())) == list(range(len(powers)))
                for table in (nxt, powers, at):
                    assert not table.flags.writeable
                energies = reached

    @pytest.mark.parametrize("initial_soc", [0.05, 0.95])
    def test_exact_minimum_over_every_action_sequence(self, fixture_profiles, initial_soc):
        # the starts clip on a full discharge (0.05) or a full charge (0.95)
        start = initial_soc * BAT.capacity_kwh
        assert battery_step_one(start, -1.0 if initial_soc < 0.5 else 1.0, BAT)[2]
        # from 13:00 the six hours see PV fading under the high price
        days = [DayProfile(*(np.roll(a, -13)[:6] for a in (day.prices_eur_per_kwh, day.demand_kw,
                                                           day.pv_kw)), day.label)
                for day in fixture_profiles[:3]]
        for day, dp in zip(days, dp_optimal_cost(days, BAT, TAR, initial_soc=initial_soc)):
            totals = all_sequence_costs(day, BAT, TAR, start)
            assert len(totals) == 5 ** 6
            assert abs(dp - min(totals)) <= 1e-12


def all_sequence_costs(day, battery, tariff, energy):
    """Total cost of every action sequence, summed hour by hour in rollout
    order, with the env's own transition and cost functions: hour ``h``
    steps all ``5 ** (h + 1)`` sequence prefixes as one array."""
    levels = np.array(battery.action_levels)
    energy, spent = np.array([energy]), np.zeros(1)
    for hour in range(len(day.prices_eur_per_kwh)):
        signal = np.tile(levels, len(energy))
        energy, spent = np.repeat(energy, len(levels)), np.repeat(spent, len(levels))
        energy, power = battery_update(energy, signal, battery)
        p_agg = aggregate_power(day.demand_kw[hour], day.pv_kw[hour], power)
        spent = spent + (energy_cost(p_agg, day.prices_eur_per_kwh[hour], tariff)
                         + capacity_cost(p_agg, tariff))
    return spent


class TestComparePolicies:
    def test_self_comparison_is_zero_improvement(self, fixture_profiles, fixture_stats):
        groups = [PolicyGroup("rbc", [(0, RbcPolicy(BAT, fixture_stats))])]
        result = compare_policies(groups, fixture_profiles[:2], BAT, TAR, fixture_stats, 0.5)
        (rbc,) = result.aggregates
        assert rbc["improvement_vs_baseline_pct"] == pytest.approx(0.0)

    def test_aggregates_recomputable_from_rows(self, fixture_profiles, fixture_stats):
        groups = [
            PolicyGroup("rbc", [(0, RbcPolicy(BAT, fixture_stats))]),
            PolicyGroup("idle", [(s, ConstantPolicy(2, "idle")) for s in range(3)]),
        ]
        result = compare_policies(groups, fixture_profiles[:3], BAT, TAR, fixture_stats, 0.5)
        idle_costs = [r["mean_daily_cost_eur"] for r in result.rows if r["policy"] == "idle"]
        rbc, agg = result.aggregates
        assert (rbc["policy"], agg["policy"]) == ("rbc", "idle")
        assert agg["mean"] == pytest.approx(float(np.mean(idle_costs)))
        assert agg["median"] == pytest.approx(float(np.percentile(idle_costs, 50)))
        assert agg["q1"] == pytest.approx(float(np.percentile(idle_costs, 25)))
        rbc_mean = rbc["mean"]
        assert agg["improvement_vs_baseline_pct"] == pytest.approx(
            (rbc_mean - agg["mean"]) / rbc_mean * 100.0)

    def test_csv_outputs_parse(self, evaluate_run):
        out, res = evaluate_run
        result = res["comparison"]
        per_seed = (out / "reports" / "comparison_per_seed.csv").read_text()
        assert per_seed.startswith("policy,seed,")
        # the per-value writers the table formatter replaced
        assert per_seed == "policy,seed,mean_daily_cost_eur\n" + "".join(
            f"{r['policy']},{r['seed']},{r['mean_daily_cost_eur']!r}\n" for r in result.rows)
        summary = (out / "reports" / "comparison_summary.csv").read_text()
        assert summary.count("\n") == 3
        cols = ["policy", "mean", "min", "q1", "median", "q3", "max",
                "improvement_vs_baseline_pct"]
        assert summary == ",".join(cols) + "\n" + "".join(
            ",".join(repr(a[c]) if isinstance(a[c], float) else str(a[c]) for c in cols) + "\n"
            for a in result.aggregates)


# Test-only references: the per-cell heatmap code that the array labelling and
# the row-at-a-time writers replaced. The helpers must agree with them exactly.

def flood_fill_regions(actions: np.ndarray) -> int:
    """Connected same-action regions under 4-neighbour adjacency, one cell at a time."""
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


def per_cell_csv(grid: HeatmapGrid) -> str:
    out = io.StringIO()
    out.write("soc\\price," + ",".join(repr(float(p)) for p in grid.price_axis) + "\n")
    for i, soc in enumerate(grid.soc_axis):
        out.write(repr(float(soc)) + "," + ",".join(str(int(a)) for a in grid.actions[i]) + "\n")
    return out.getvalue()


def per_cell_svg(grid: HeatmapGrid) -> str:
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
    for i in range(rows):
        for j in range(cols):
            color = _SVG_COLORS[grid.actions[i, j] % len(_SVG_COLORS)]
            y = 24 + (rows - 1 - i) * cell
            out.write(f'<rect x="{j * cell}" y="{y}" width="{cell}" height="{cell}" '
                      f'fill="{color}"/>\n')
    for k, name in enumerate(ACTION_NAMES):
        y = 34 + 18 * k
        out.write(f'<rect x="{cols * cell + 8}" y="{y - 9}" width="12" height="12" '
                  f'fill="{_SVG_COLORS[k % len(_SVG_COLORS)]}"/>\n')
        out.write(f'<text x="{cols * cell + 24}" y="{y}" font-size="10">{name}</text>\n')
    out.write("</svg>\n")
    return out.getvalue()


def spiral(n: int) -> np.ndarray:
    """An n x n square spiral: a wall of 1s winding inward beside a corridor of 0s
    one cell wide, so each of the two regions is one long path."""
    grid = np.zeros((n, n), dtype=int)
    r = c = 0
    dr, dc = 0, 1
    grid[r, c] = 1
    turns = 0
    while turns < 2:
        nr, nc, ar, ac = r + dr, c + dc, r + 2 * dr, c + 2 * dc
        if 0 <= nr < n and 0 <= nc < n and not grid[nr, nc] \
                and not (0 <= ar < n and 0 <= ac < n and grid[ar, ac]):
            r, c, turns = nr, nc, 0
            grid[r, c] = 1
        else:
            dr, dc, turns = dc, -dr, turns + 1
    return grid


def comb(n: int) -> np.ndarray:
    """An n x n comb: a spine of 1s along the top row with a tooth down every
    even column but the bottom row, so the 0s snake through every gap."""
    grid = np.zeros((n, n), dtype=int)
    grid[0] = 1
    grid[:-1, ::2] = 1
    return grid


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def action_panels(draw):
    """Panels of 1 x 1 to 30 x 30 cells over 1-5 actions, line-shaped ones included."""
    rows, cols = draw(st.sampled_from([(1, None), (None, 1), (None, None)]))
    rows = rows or draw(st.integers(1, 30))
    cols = cols or draw(st.integers(1, 30))
    n_actions = draw(st.integers(1, 5))
    return draw(hnp.arrays(np.int64, (rows, cols), elements=st.integers(0, n_actions - 1)))


@st.composite
def crisp_trees(draw):
    """Untrained crisp trees of depth 2 or 3: any features, flips and leaf actions,
    and thresholds in [-0.1, 1.1], a little past the normalized range."""
    depth = draw(st.sampled_from([2, 3]))
    n_nodes = 2 ** depth - 1
    nodes = draw(st.lists(st.tuples(st.integers(0, 4), st.floats(-0.1, 1.1), st.booleans()),
                          min_size=n_nodes, max_size=n_nodes))
    leaves = draw(st.lists(st.integers(0, 4), min_size=2 ** depth, max_size=2 ** depth))
    features, thresholds, flipped = zip(*nodes)
    return CrispTree(depth, features, thresholds, flipped, tuple(leaves))


class TestHeatmaps:
    def grid(self):
        return np.linspace(0, 1, 21)

    def test_constant_policy_gives_uniform_grid(self):
        grids = policy_heatmap(ConstantPolicy(3), self.grid(), self.grid(), [0.5], 0.5, 0.0)
        assert len(grids) == 1
        assert np.all(grids[0].actions == 3)
        assert count_action_regions(grids[0].actions) == 1

    def test_depth2_tree_has_at_most_four_regions(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            nodes = [(int(rng.integers(1, 3)), float(rng.uniform(0.2, 0.8)), False)
                     for _ in range(3)]
            tree = CrispTree(2, tuple(n[0] for n in nodes), tuple(n[1] for n in nodes),
                             (False, False, False), tuple(rng.integers(0, 5, size=4)))
            grids = policy_heatmap(CrispTreePolicy(tree), self.grid(), self.grid(), [0.3], 0.5, 0.0)
            assert count_action_regions(grids[0].actions) <= 4
            assert len(np.unique(grids[0].actions)) <= 4

    @PROPERTY
    @given(crisp_trees(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_crisp_tree_panel_has_at_most_2_to_the_depth_regions(self, tree, demand, hour, pv):
        # each leaf's states form one axis-aligned box, which covers one rectangle
        # of a panel, so a depth-d tree paints at most 2^d regions
        axis = np.linspace(0.0, 1.0, 41)
        (grid,) = policy_heatmap(CrispTreePolicy(tree), axis, axis, [demand], hour, pv)
        assert count_action_regions(grid.actions) <= 2 ** tree.depth
        assert len(np.unique(grid.actions)) <= 2 ** tree.depth

    def test_region_counter_on_known_patterns(self):
        stripes = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
        assert count_action_regions(stripes) == 2
        # 4-connectivity: every checkerboard cell is its own region
        checker = np.indices((4, 4)).sum(axis=0) % 2
        assert count_action_regions(checker) == 16
        same = np.zeros((3, 3), dtype=int)
        assert count_action_regions(same) == 1
        quad = np.array([[0, 1], [2, 3]])
        assert count_action_regions(quad) == 4

    @PROPERTY
    @given(action_panels())
    def test_region_count_matches_flood_fill(self, actions):
        assert count_action_regions(actions) == flood_fill_regions(actions)

    @pytest.mark.parametrize("seed", range(8))
    def test_region_count_matches_flood_fill_on_blocky_panels(self, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 3, size=rng.integers(1, 8, size=2))
        actions = np.kron(blocks, np.ones(rng.integers(1, 9, size=2), dtype=int))
        assert count_action_regions(actions) == flood_fill_regions(actions)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_region_count_matches_flood_fill_on_tree_panels(self, depth):
        rng = np.random.default_rng(depth)
        axis = np.linspace(0.0, 1.0, 41)
        for _ in range(5):
            policy = CrispTreePolicy(random_crisp_tree(depth, rng))
            for grid in policy_heatmap(policy, axis, axis, [0.2, 0.8], 0.5, 0.0):
                assert count_action_regions(grid.actions) == flood_fill_regions(grid.actions)

    @pytest.mark.parametrize("panel", [spiral, comb])
    def test_region_along_a_long_path_counts_once(self, panel):
        actions = panel(41)
        assert flood_fill_regions(actions) == 2
        # the same shapes under every reflection, so the path runs against the cell order too
        for variant in (actions, actions.T, actions[::-1], actions[:, ::-1], actions[::-1, ::-1]):
            assert count_action_regions(variant) == 2

    def test_teacher_policy_heatmap_runs(self):
        net = init_dense([5, 8, 5], np.random.default_rng(0))
        grids = policy_heatmap(TeacherPolicy(net), self.grid(), self.grid(), [0.2, 0.8], 0.5, 0.0)
        assert len(grids) == 2
        for g in grids:
            assert np.all((g.actions >= 0) & (g.actions < 5))

    def test_csv_and_svg_render(self):
        grids = policy_heatmap(ConstantPolicy(1), self.grid(), self.grid(), [0.5], 0.5, 0.0)
        csv = heatmap_to_csv(grids[0])
        assert csv.count("\n") == 22
        svg = heatmap_to_svg(grids[0])
        root = ET.fromstring(svg)          # well-formed XML
        assert root.tag.endswith("svg")
        assert len(root) > 21 * 21          # one rect per cell plus legend

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 17), (23, 1), (7, 13), (13, 7),
                                           (41, 41)])
    @pytest.mark.parametrize("n_actions", [5, 8])      # 8: colours wrap around
    def test_writers_match_per_cell_reference(self, rows, cols, n_actions):
        rng = np.random.default_rng(rows * cols)
        grid = HeatmapGrid("ddt2_s0", np.sort(rng.uniform(size=rows)),
                           np.sort(rng.uniform(-0.5, 1.5, size=cols)), *rng.uniform(size=3),
                           rng.integers(0, n_actions, size=(rows, cols)))
        assert heatmap_to_csv(grid) == per_cell_csv(grid)
        assert heatmap_to_svg(grid) == per_cell_svg(grid)

    @pytest.mark.parametrize("kind", ["const3", "ddt1", "ddt2", "ddt3", "dqn"])
    def test_batched_panels_match_per_cell_reference(self, kind):
        # 41 x 41 = 1681 rows per panel: more than one block of the teacher's forward
        stats = NormalizationStats(0.05, 0.25, 0.2, 4.1, 0.0, 1.9)
        policy, _ = policy_and_reference(kind, stats)
        net = getattr(policy, "net", None)
        tree = getattr(policy, "tree", None)

        def cell(x):
            if tree is not None:
                return crisp_walk_one(tree, x)
            if net is not None:
                return int(np.argmin(dense_forward_batch(net, x[None, :])))
            return policy.action_index

        axis = np.linspace(0.0, 1.0, 41)
        grids = policy_heatmap(policy, axis, axis, (0.2, 0.5, 0.8), 12 / 23, 0.3)
        for grid, demand in zip(grids, (0.2, 0.5, 0.8)):
            want = [[cell(np.array([12 / 23, soc, price, demand, 0.3])) for price in axis]
                    for soc in axis]
            assert grid.actions.tolist() == want

    def test_reports_reproducible(self, fixture_profiles, fixture_stats):
        groups = [PolicyGroup("rbc", [(0, RbcPolicy(BAT, fixture_stats))])]
        a = compare_policies(groups, fixture_profiles[:2], BAT, TAR, fixture_stats, 0.5)
        b = compare_policies(groups, fixture_profiles[:2], BAT, TAR, fixture_stats, 0.5)
        assert a == b


def test_mean_daily_cost_is_mean_of_reports(fixture_profiles, fixture_stats):
    pol = ConstantPolicy(2)
    days = fixture_profiles[:3]
    per_day = [run_episode(pol, d, BAT, TAR, fixture_stats, 0.5).total_cost_eur for d in days]
    assert mean_daily_cost(pol, days, BAT, TAR, fixture_stats, 0.5) == pytest.approx(
        float(np.mean(per_day)))
