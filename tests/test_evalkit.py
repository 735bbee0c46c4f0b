import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from treepolicy.dataio import DayProfile, NormalizationStats, RunConfig, build_profiles
from treepolicy.ddt import CrispTree
from treepolicy.diffmath import dense_forward_batch
from treepolicy.envsim import (
    BatteryParams,
    TariffParams,
    aggregate_power,
    battery_update,
    capacity_cost,
    energy_cost,
    rbc_action,
)
from treepolicy.errors import ConfigError
from treepolicy.evalkit import (
    DP_BLOCK_DAYS,
    CrispTreePolicy,
    PolicyGroup,
    RbcPolicy,
    TeacherPolicy,
    compare_policies,
    _reachable_lattice,
    count_action_regions,
    dp_optimal_cost,
    episode_trace_csv,
    heatmap_to_csv,
    heatmap_to_svg,
    mean_daily_cost,
    policy_heatmap,
    rollout,
    run_episode,
)
from treepolicy.teacher import TeacherAgent, greedy_action

from conftest import (
    ConstantPolicy,
    battery_step_one,
    bit_patterns,
    crisp_walk_one,
    dp_cost_one,
    rbc_action_one,
    reference_day,
)

BAT = BatteryParams()
TAR = TariffParams()


def flat_day(price=0.1, demand=1.0, pv=0.0):
    return DayProfile(np.full(24, price), np.full(24, demand), np.full(24, pv), "flat")


class TestRunEpisode:
    def test_idle_policy_matches_summation_oracle(self, fixture_profiles, fixture_stats):
        day = fixture_profiles[0]
        report = run_episode(ConstantPolicy(2, "idle"), day, BAT, TAR, fixture_stats)
        expected = 0.0
        for h in range(24):
            p = float(day.demand_kw[h] - day.pv_kw[h])
            price = float(day.prices_eur_per_kwh[h])
            expected += price * p if p >= 0 else 0.25 * price * p
            expected += 0.05 * max(p, 4.0)
        assert report.total_cost_eur == pytest.approx(expected, abs=1e-9)
        assert report.total_cost_eur == pytest.approx(
            report.energy_cost_eur + report.capacity_cost_eur, abs=1e-9)
        assert len(report.trace) == 24

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
        a = run_episode(pol, day, BAT, TAR, fixture_stats)
        b = run_episode(pol, day, BAT, TAR, fixture_stats)
        assert a == b

    def test_trace_csv_well_formed(self, fixture_profiles, fixture_stats):
        report = run_episode(ConstantPolicy(2), fixture_profiles[0], BAT, TAR, fixture_stats)
        csv = episode_trace_csv(report)
        lines = csv.strip().split("\n")
        assert len(lines) == 25
        assert lines[0].startswith("hour,")


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
    return TeacherPolicy(agent), (True, lambda x, demand, pv: greedy_action(agent, x))


def step_through_env(reference, days, stats, initial_soc):
    """Per-day totals and per-hour trace columns from the scalar reference
    physics, one day and one hour at a time."""
    discrete, decide = reference
    signal = (lambda x, demand, pv: BAT.action_levels[decide(x, demand, pv)]) if discrete \
        else decide
    totals, traces = [], []
    for day in days:
        total = e_total = c_total = 0.0
        rows = []
        for step in reference_day(signal, day, BAT, TAR, stats, initial_soc):
            total += step.cost_eur
            e_total += step.energy_cost_eur
            c_total += step.capacity_cost_eur
            rows.append((step.energy_kwh, step.signal, step.battery_power_kw,
                         step.realized_power_kw, step.cost_eur))
        totals.append((total, e_total, c_total))
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
        for column, want in zip((got.total_cost_eur, got.energy_cost_eur,
                                 got.capacity_cost_eur), totals.T):
            assert_bits_equal(column, want)
        for column, want in zip((got.energy_kwh, got.action, got.battery_power_kw,
                                 got.realized_power_kw, got.cost_eur), np.moveaxis(traces, 2, 0)):
            assert_bits_equal(column, want)
        assert got.day_labels == [d.label for d in fixture_profiles]

    def test_constant_policies_hit_both_clip_bounds(self, fixture_profiles, fixture_stats):
        empty = rollout(ConstantPolicy(0), fixture_profiles, BAT, TAR, fixture_stats, 0.0)
        full = rollout(ConstantPolicy(4), fixture_profiles, BAT, TAR, fixture_stats, 1.0)
        assert np.all(empty.energy_kwh == 0.0) and np.all(empty.battery_power_kw == 0.0)
        assert np.all(full.energy_kwh == BAT.capacity_kwh)
        assert np.all(full.battery_power_kw == 0.0)

    def test_one_day_report_is_that_day_of_the_rollout(self, fixture_profiles, fixture_stats):
        policy = RbcPolicy(BAT, fixture_stats)
        whole = rollout(policy, fixture_profiles, BAT, TAR, fixture_stats)
        for d in (0, 5, len(fixture_profiles) - 1):
            assert run_episode(policy, fixture_profiles[d], BAT, TAR, fixture_stats,
                               seed=3) == whole.episode(d, seed=3)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_action_index_outside_levels_rejected(self, fixture_profiles, fixture_stats, index):
        with pytest.raises(ValueError, match="outside"):
            rollout(ConstantPolicy(index), fixture_profiles[:2], BAT, TAR, fixture_stats)

    def test_bad_inputs_rejected(self, fixture_profiles, fixture_stats):
        with pytest.raises(ConfigError):
            rollout(ConstantPolicy(2), [], BAT, TAR, fixture_stats)
        with pytest.raises(ConfigError):
            rollout(ConstantPolicy(2), fixture_profiles[:1], BAT, TAR, fixture_stats, 1.5)
        with pytest.raises(ConfigError):
            rollout(ConstantPolicy(2), fixture_profiles[:1], BAT, TariffParams(horizon_steps=6),
                    fixture_stats)


def oracle_days(n):
    """``n`` distinct synthetic days."""
    return build_profiles(RunConfig(days=n))


class TestDpOracle:
    def test_zero_prices_zero_rate_is_free(self):
        day = flat_day(price=0.0, demand=0.0)
        tariff = TariffParams(capacity_rate_eur_per_kw=0.0)
        assert dp_optimal_cost([day], BAT, tariff)[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_prices_hits_capacity_floor(self):
        day = flat_day(price=0.0, demand=1.0)
        # charging only raises the aggregate, so idling at the floor is optimal
        assert dp_optimal_cost([day], BAT, TAR)[0] == pytest.approx(24 * 0.05 * 4.0, abs=1e-9)

    def test_one_step_horizon_equals_exhaustive_minimum(self):
        day = flat_day(price=0.2, demand=3.0, pv=1.0)
        tariff = TariffParams(horizon_steps=1)
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
        assert dp_optimal_cost([day], BAT, tariff, initial_soc=0.5)[0] == pytest.approx(best, abs=1e-9)

    def test_lower_bounds_all_policies(self, fixture_profiles, fixture_stats):
        days = fixture_profiles[:4]
        for day, dp in zip(days, dp_optimal_cost(days, BAT, TAR)):
            for pol in (ConstantPolicy(0), ConstantPolicy(2), ConstantPolicy(4),
                        RbcPolicy(BAT, fixture_stats)):
                cost = run_episode(pol, day, BAT, TAR, fixture_stats).total_cost_eur
                assert dp <= cost + 1e-6

    def test_initial_soc_outside_unit_interval_rejected(self):
        # a start above capacity would hand the oracle free phantom energy
        with pytest.raises(ConfigError):
            dp_optimal_cost([flat_day()], BAT, TAR, initial_soc=2.0)
        with pytest.raises(ConfigError):
            dp_optimal_cost([flat_day()], BAT, TAR, initial_soc=-0.1)

    def test_empty_day_list_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            dp_optimal_cost([], BAT, TAR)

    @pytest.mark.parametrize("n_days", [1, DP_BLOCK_DAYS - 1, DP_BLOCK_DAYS, DP_BLOCK_DAYS + 1,
                                        2 * DP_BLOCK_DAYS + 1])
    def test_blocks_match_one_day_at_a_time(self, n_days):
        days = oracle_days(n_days)
        want = [dp_cost_one(day, BAT, TAR, 0.5) for day in days]
        got = dp_optimal_cost(days, BAT, TAR)
        assert got.shape == (n_days,)
        assert bit_patterns(got) == bit_patterns(want)

    @pytest.mark.parametrize("tariff, initial_soc", [
        (TariffParams(capacity_rate_eur_per_kw=0.0), 0.5),
        (TAR, 0.0), (TAR, 0.05), (TAR, 0.95), (TAR, 1.0),
        (TariffParams(horizon_steps=6), 0.5),
    ], ids=["zero-rate", "soc-0", "soc-0.05", "soc-0.95", "soc-1", "six-hours"])
    def test_blocks_match_one_day_at_a_time_across_settings(self, tariff, initial_soc):
        days = oracle_days(DP_BLOCK_DAYS + 1)
        want = [dp_cost_one(day, BAT, tariff, initial_soc) for day in days]
        assert bit_patterns(dp_optimal_cost(days, BAT, tariff, initial_soc)) == bit_patterns(want)

    def test_memory_does_not_grow_with_days(self):
        days = oracle_days(4 * DP_BLOCK_DAYS)
        dp_optimal_cost(days[:1], BAT, TAR)      # the cached lattice is not the oracle's to count
        peaks = []
        for n in (DP_BLOCK_DAYS, len(days)):
            tracemalloc.start()
            try:
                dp_optimal_cost(days[:n], BAT, TAR)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # four times the days add only the 8-byte costs, not another block's arrays
        assert peaks[1] - peaks[0] < 64 * 1024
        assert peaks[1] < 2_000_000

    @pytest.mark.parametrize("battery", [BAT, BatteryParams(7.5, 3.0, 0.95)])
    def test_lattice_matches_scalar_battery_steps(self, battery):
        # each hour's tables rebuild one scalar battery_update per (action, state)
        for start in (0.0, battery.capacity_kwh / 2, battery.capacity_kwh):
            energies = [start]
            for nxt, powers, at in _reachable_lattice(battery, TAR, start):
                moves = [battery_step_one(e, u, battery, TAR.timestep_hours)
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
        assert battery_update(start, -1.0 if initial_soc < 0.5 else 1.0, BAT, 1.0)[2]
        tariff = TariffParams(horizon_steps=6)
        # from 13:00 the six hours see PV fading under the high price
        days = [DayProfile(*(np.roll(a, -13) for a in (day.prices_eur_per_kwh, day.demand_kw,
                                                       day.pv_kw)), day.label)
                for day in fixture_profiles[:3]]
        for day, dp in zip(days, dp_optimal_cost(days, BAT, tariff, initial_soc=initial_soc)):
            totals = all_sequence_costs(day, BAT, tariff, start)
            assert len(totals) == 5 ** 6
            assert abs(dp - min(totals)) <= 1e-12


def all_sequence_costs(day, battery, tariff, energy):
    """Total cost of every action sequence, summed hour by hour in rollout
    order, with the env's own transition and cost functions: hour ``h``
    steps all ``5 ** (h + 1)`` sequence prefixes as one array."""
    levels = np.array(battery.action_levels)
    energy, spent = np.array([energy]), np.zeros(1)
    for hour in range(tariff.horizon_steps):
        signal = np.tile(levels, len(energy))
        energy, spent = np.repeat(energy, len(levels)), np.repeat(spent, len(levels))
        energy, power, _ = battery_update(energy, signal, battery, tariff.timestep_hours)
        p_agg = aggregate_power(day.demand_kw[hour], day.pv_kw[hour], power)
        spent = spent + (energy_cost(p_agg, day.prices_eur_per_kwh[hour], tariff)
                         + capacity_cost(p_agg, tariff))
    return spent


class TestComparePolicies:
    def test_self_comparison_is_zero_improvement(self, fixture_profiles, fixture_stats):
        groups = [PolicyGroup("rbc", [(0, RbcPolicy(BAT, fixture_stats))])]
        result = compare_policies(groups, fixture_profiles[:2], BAT, TAR, fixture_stats)
        assert result.aggregate("rbc")["improvement_vs_baseline_pct"] == pytest.approx(0.0)

    def test_aggregates_recomputable_from_rows(self, fixture_profiles, fixture_stats):
        groups = [
            PolicyGroup("rbc", [(0, RbcPolicy(BAT, fixture_stats))]),
            PolicyGroup("idle", [(s, ConstantPolicy(2, "idle")) for s in range(3)]),
        ]
        result = compare_policies(groups, fixture_profiles[:3], BAT, TAR, fixture_stats)
        idle_costs = [r["mean_daily_cost_eur"] for r in result.rows if r["policy"] == "idle"]
        agg = result.aggregate("idle")
        assert agg["mean"] == pytest.approx(float(np.mean(idle_costs)))
        assert agg["median"] == pytest.approx(float(np.percentile(idle_costs, 50)))
        assert agg["q1"] == pytest.approx(float(np.percentile(idle_costs, 25)))
        rbc_mean = result.aggregate("rbc")["mean"]
        assert agg["improvement_vs_baseline_pct"] == pytest.approx(
            (rbc_mean - agg["mean"]) / rbc_mean * 100.0)

    def test_csv_outputs_parse(self, fixture_profiles, fixture_stats):
        groups = [PolicyGroup("rbc", [(0, RbcPolicy(BAT, fixture_stats))])]
        result = compare_policies(groups, fixture_profiles[:2], BAT, TAR, fixture_stats)
        assert result.to_csv().startswith("policy,seed,")
        assert result.aggregates_csv().count("\n") == 2

    def test_empty_inputs_rejected(self, fixture_profiles, fixture_stats):
        with pytest.raises(ConfigError):
            compare_policies([], fixture_profiles, BAT, TAR, fixture_stats)


class TestHeatmaps:
    def grid(self):
        return np.linspace(0, 1, 21)

    def test_constant_policy_gives_uniform_grid(self):
        grids = policy_heatmap(ConstantPolicy(3), self.grid(), self.grid(), [0.5])
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
            grids = policy_heatmap(CrispTreePolicy(tree), self.grid(), self.grid(), [0.3])
            assert count_action_regions(grids[0].actions) <= 4
            assert len(np.unique(grids[0].actions)) <= 4

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

    def test_teacher_policy_heatmap_runs(self):
        agent = TeacherAgent.create([5, 8, 5], 0.001, 0.99, 0.1, np.random.default_rng(0))
        grids = policy_heatmap(TeacherPolicy(agent), self.grid(), self.grid(), [0.2, 0.8])
        assert len(grids) == 2
        for g in grids:
            assert np.all((g.actions >= 0) & (g.actions < 5))

    def test_csv_and_svg_render(self):
        grids = policy_heatmap(ConstantPolicy(1), self.grid(), self.grid(), [0.5])
        csv = heatmap_to_csv(grids[0])
        assert csv.count("\n") == 22
        svg = heatmap_to_svg(grids[0])
        root = ET.fromstring(svg)          # well-formed XML
        assert root.tag.endswith("svg")
        assert len(root) > 21 * 21          # one rect per cell plus legend

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            policy_heatmap(ConstantPolicy(0), np.array([]), self.grid(), [0.5])

    @pytest.mark.parametrize("kind", ["const3", "ddt1", "ddt2", "ddt3", "dqn"])
    def test_batched_panels_match_per_cell_reference(self, kind):
        # 41 x 41 = 1681 rows per panel: more than one block of the teacher's forward
        stats = NormalizationStats(0.05, 0.25, 0.2, 4.1, 0.0, 1.9)
        policy, _ = policy_and_reference(kind, stats)
        agent = getattr(policy, "agent", None)
        tree = getattr(policy, "tree", None)

        def cell(x):
            if tree is not None:
                return crisp_walk_one(tree, x)
            if agent is not None:
                return int(np.argmin(dense_forward_batch(agent.online_net, x[None, :])))
            return policy.action_index

        axis = np.linspace(0.0, 1.0, 41)
        grids = policy_heatmap(policy, axis, axis, (0.2, 0.5, 0.8), 12 / 23, 0.3)
        for grid, demand in zip(grids, (0.2, 0.5, 0.8)):
            want = [[cell(np.array([12 / 23, soc, price, demand, 0.3])) for price in axis]
                    for soc in axis]
            assert grid.actions.tolist() == want

    def test_reports_reproducible(self, fixture_profiles, fixture_stats):
        groups = [PolicyGroup("rbc", [(0, RbcPolicy(BAT, fixture_stats))])]
        a = compare_policies(groups, fixture_profiles[:2], BAT, TAR, fixture_stats).to_csv()
        b = compare_policies(groups, fixture_profiles[:2], BAT, TAR, fixture_stats).to_csv()
        assert a == b


def test_mean_daily_cost_is_mean_of_reports(fixture_profiles, fixture_stats):
    pol = ConstantPolicy(2)
    days = fixture_profiles[:3]
    per_day = [run_episode(pol, d, BAT, TAR, fixture_stats).total_cost_eur for d in days]
    assert mean_daily_cost(pol, days, BAT, TAR, fixture_stats) == pytest.approx(
        float(np.mean(per_day)))
