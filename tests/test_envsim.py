import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepolicy.dataio import DayProfile, NormalizationStats, RunConfig, build_profiles
from treepolicy.envsim import (
    BatteryParams,
    HomeEnv,
    aggregate_power,
    battery_update,
    capacity_cost,
    energy_cost,
    rbc_action,
)
from treepolicy.errors import ConfigError
from treepolicy import evalkit

from conftest import (
    battery_step_one,
    bit_patterns,
    capacity_cost_one,
    energy_cost_one,
    normalize_one,
    rbc_action_one,
    reference_day,
)

BAT = RunConfig().battery()
TAR = RunConfig().tariff()


def flat_day(price=0.1, demand=0.0, pv=0.0):
    return DayProfile(np.full(24, price), np.full(24, demand), np.full(24, pv), "flat")


def stats_for(days):
    return NormalizationStats.from_profiles(days)


class TestBatteryUpdate:
    def test_idle(self):
        assert battery_update(5.0, 0.0, BAT) == (5.0, 0.0)

    def test_full_charge_hand_value(self):
        new_e, power = battery_update(5.0, 1.0, BAT)
        assert new_e == pytest.approx(5.0 + 0.9 * 4.0)
        assert power == 4.0

    def test_charge_clipped_at_capacity(self):
        new_e, power = battery_update(9.5, 1.0, BAT)
        assert new_e == 10.0
        assert power == pytest.approx(0.5 / 0.9)

    def test_discharge_clipped_at_zero(self):
        new_e, power = battery_update(0.5, -1.0, BAT)
        assert new_e == 0.0
        assert power == pytest.approx(-0.5 * 0.9)

    def test_round_trip_efficiency_is_eta_squared(self):
        # charge one hour at full power, then discharge the stored delta
        mid, p_in = battery_update(0.0, 1.0, BAT)
        back, p_out = battery_update(mid, -1.0, BAT)
        assert back == 0.0
        assert -p_out / p_in == pytest.approx(BAT.efficiency ** 2)
        assert -p_out / p_in <= 0.81 + 1e-12

    def test_energy_bounds_under_random_actions(self):
        rng = np.random.default_rng(0)
        e = 5.0
        for _ in range(10_000):
            e, _ = battery_update(e, rng.uniform(-1, 1), BAT)
            assert 0.0 <= e <= BAT.capacity_kwh

    def test_energy_bounds_over_random_episodes(self, fixture_profiles, fixture_stats):
        # 10,000 episodes in batches of 100 days, each batch from its own start
        rng = np.random.default_rng(1)
        env = HomeEnv(BAT, TAR, fixture_stats)
        levels = np.array(BAT.action_levels)
        for batch in range(100):
            env.reset([fixture_profiles[(100 * batch + i) % len(fixture_profiles)]
                       for i in range(100)], rng.uniform())
            for _ in range(24):
                env.step(levels[rng.integers(5, size=100)])
                assert np.all((env.energy_kwh >= 0.0) & (env.energy_kwh <= BAT.capacity_kwh))


class TestCosts:
    def test_aggregate_power(self):
        assert aggregate_power(2.0, 0.0, 0.0) == 2.0
        assert aggregate_power(1.0, 3.0, 0.0) == -2.0
        assert aggregate_power(2.0, 1.0, 4.0) == 5.0

    def test_energy_cost(self):
        assert energy_cost(0.0, 0.1, TAR) == 0.0
        assert energy_cost(2.0, 0.1, TAR) == pytest.approx(0.20)
        assert energy_cost(-2.0, 0.1, TAR) == pytest.approx(-0.05)

    def test_capacity_cost(self):
        assert capacity_cost(2.0, TAR) == pytest.approx(0.20)
        assert capacity_cost(6.0, TAR) == pytest.approx(0.30)
        free = RunConfig(capacity_rate_eur_per_kw=0.0).tariff()
        assert capacity_cost(100.0, free) == 0.0

    def test_array_costs_match_scalar_costs(self):
        # equal to the scalar reference's cost of each float power
        p_agg = np.concatenate([np.linspace(-8.0, 8.0, 161), [0.0, -0.0, 4.0]])
        energy = [energy_cost_one(p, 0.17, TAR) for p in p_agg.tolist()]
        capacity = [capacity_cost_one(p, TAR) for p in p_agg.tolist()]
        assert energy_cost(p_agg, 0.17, TAR).tobytes() == np.array(energy).tobytes()
        assert capacity_cost(p_agg, TAR).tobytes() == np.array(capacity).tobytes()


class TestArrayMatchesScalar:
    """The array physics equals the scalar reference (``conftest``) element
    by element, bit for bit."""

    @pytest.mark.parametrize("battery", [
        BAT, BatteryParams(7.5, 3.0, 0.95, (-1.0, -0.25, 0.0, 0.25, 1.0))])
    def test_battery_update(self, battery):
        cap, move = battery.capacity_kwh, battery.max_power_kw
        energies = [0.0, -0.0, 5e-324, 1.0, cap / 2, float(np.nextafter(cap, 0.0)), cap,
                    cap - battery.efficiency * move, move / battery.efficiency,
                    battery.efficiency * move, np.nan]
        signals = [-1.0, -0.5, -0.0, 0.0, 1e-300, 0.37, 0.5, 1.0, np.nan,
                   *battery.action_levels]
        grid_e, grid_u = np.meshgrid(energies, signals, indexing="ij")
        new_e, power = battery_update(grid_e, grid_u, battery)
        # the oracle's broadcast form: a column of states against the level row
        col = battery_update(np.array(energies)[:, None], np.array(signals), battery)
        for got, again in zip((new_e, power), col):
            assert np.array_equal(got, again, equal_nan=True)
        want = [battery_step_one(e, u, battery)
                for e, u in itertools.product(energies, signals)]
        assert bit_patterns(new_e.ravel()) == bit_patterns([w[0] for w in want])
        assert bit_patterns(power.ravel()) == bit_patterns([w[1] for w in want])
        # the grid covers clipped and unclipped steps
        clipped = [w[2] for w in want]
        assert any(clipped) and not all(clipped)

    def test_rbc_action(self):
        top = BAT.max_power_kw
        loads = [0.0, -0.0, 1.0, top / 2, np.nextafter(top, 0.0), top, top + 1e-9, 2 * top,
                 np.nan]
        demand, pv = (g.ravel() for g in np.meshgrid(loads, loads, indexing="ij"))
        got = rbc_action(demand, pv, BAT)
        want = [rbc_action_one(d, v, BAT) for d, v in zip(demand.tolist(), pv.tolist())]
        assert bit_patterns(got) == bit_patterns(want)
        # net load at exactly +/- max power saturates
        assert {-1.0, 1.0} <= set(want)

    @pytest.mark.parametrize("stats", [
        NormalizationStats(0.05, 0.25, 0.2, 4.1, 0.0, 1.9),
        NormalizationStats(0.1, 0.1, 2.0, 1.0, 0.5, 0.5)],      # hi <= lo everywhere
        ids=["spread", "degenerate"])
    def test_normalize(self, stats):
        hours = [0, 1, 12, 23, 24, -1]
        prices = [0.05, 0.25, 0.1, 0.3, -0.0, np.nan]
        loads = [0.0, -0.0, 0.2, 4.1, 5.0, 1.9]
        rows = list(itertools.product(hours, prices, loads, loads))
        h, p, d, v = (np.array(c) for c in zip(*rows))
        got = stats.normalize(h, p, d, v, 24)
        assert got.shape == (len(rows), 5)
        # the SoC column stays 0: HomeEnv fills it from the stored energy
        want = [normalize_one(stats, hour, 0.0, *row, 24, 10.0) for hour, *row in rows]
        assert bit_patterns(got) == bit_patterns(want)
        # the env's form: one hour for a whole column of days
        at_noon = stats.normalize(12, p, d, v, 24)
        assert bit_patterns(at_noon) == bit_patterns(
            [normalize_one(stats, 12, 0.0, *row[1:], 24, 10.0) for row in rows])
        # and every hour for a (days, hours) table
        table = stats.normalize(np.arange(24), p[:, None], d[:, None], v[:, None], 24)
        assert table.shape == (len(rows), 24, 5)
        assert bit_patterns(table[:, 12]) == bit_patterns(at_noon)


def reference_outcomes(days, signals, stats, initial_soc, battery=BAT, tariff=TAR):
    """Per-day ``reference_day`` steps under fixed (days, hours) signals."""
    return [reference_day(lambda x, demand, pv, it=iter(row): next(it), day, battery, tariff,
                          stats, initial_soc)
            for day, row in zip(days, signals.tolist())]


def step_all(env, days, signals, initial_soc):
    """Reset and run the whole batch; returns the hour-0 states and each
    hour's (energy as the hour starts, outcome)."""
    first = env.reset(days, initial_soc)
    hours = []
    for column in signals.T:
        energy = env.energy_kwh
        hours.append((energy, env.step(column)))
    return first, hours


class TestEnvStep:
    def test_null_dynamics(self):
        day = flat_day(price=0.1)
        tariff = RunConfig(capacity_rate_eur_per_kw=0.0).tariff()
        env = HomeEnv(BAT, tariff, stats_for([day]))
        state = env.reset([day], 0.5)
        out = env.step(np.array([0.0]))
        assert out.cost_eur.tolist() == [0.0]
        assert env.hour == 1 and out.next_state[0, 0] == 1 / 23 and state[0, 0] == 0.0
        assert env.energy_kwh.tolist() == [5.0]
        assert out.next_state[0, 1] == state[0, 1]

    def test_episode_lasts_one_step_per_row(self):
        day = DayProfile(np.full(6, 0.1), np.full(6, 1.0), np.zeros(6), "short")
        env = HomeEnv(BAT, TAR, stats_for([day]))
        assert env.done                      # nothing to step before the first reset
        first = env.reset([day], 0.5)
        hours = []
        while not env.done:
            hours.append(env.step(np.array([0.0])).next_state[0, 0])
        # the hour feature spans the day's own rows, and wraps to hour 0 at the end
        assert hours == [1 / 5, 2 / 5, 3 / 5, 4 / 5, 1.0, first[0, 0]] and first[0, 0] == 0.0
        with pytest.raises(ConfigError, match="finished"):
            env.step(np.array([0.0]))

    def test_single_step_cost_composition(self):
        day = flat_day(price=0.1, demand=2.0)
        env = HomeEnv(BAT, TAR, stats_for([day]))
        env.reset([day], 0.5)
        out = env.step(np.array([0.0]))
        # energy 2 kW * 0.1 plus capacity floor 4 kW * 0.05
        assert out.cost_eur[0] == pytest.approx(0.4)
        p = out.realized_power_kw
        assert energy_cost(p, 0.1, TAR)[0] == pytest.approx(0.2)
        assert capacity_cost(p, TAR)[0] == pytest.approx(0.2)

    def test_cost_field_consistency(self):
        rng = np.random.default_rng(4)
        profiles = build_profiles(RunConfig(days=2))
        env = HomeEnv(BAT, TAR, stats_for(profiles))
        env.reset(profiles, 0.5)
        for hour in range(24):
            out = env.step(np.array(BAT.action_levels)[rng.integers(5, size=2)])
            prices = np.array([d.prices_eur_per_kwh[hour] for d in profiles])
            recomputed = [energy_cost_one(p, price, TAR) + capacity_cost_one(p, TAR)
                          for p, price in zip(out.realized_power_kw.tolist(), prices.tolist())]
            np.testing.assert_allclose(out.cost_eur, recomputed, rtol=0, atol=1e-9)

    def test_episode_sum_matches_independent_oracle(self):
        profiles = build_profiles(RunConfig(days=1))
        day = profiles[0]
        env = HomeEnv(BAT, TAR, stats_for(profiles))
        env.reset([day], 0.5)
        total = 0.0
        for _ in range(24):
            total += env.step(np.array([0.0])).cost_eur[0]

        # spreadsheet-style recomputation for the do-nothing policy
        expected = 0.0
        for h in range(24):
            p_agg = day.demand_kw[h] - day.pv_kw[h]
            price = day.prices_eur_per_kwh[h]
            if p_agg >= 0:
                expected += price * p_agg
            else:
                expected += 0.25 * price * p_agg
            expected += 0.05 * max(p_agg, 4.0)
        assert total == pytest.approx(expected, abs=1e-9)

    def test_signal_count_mismatch_is_contract_violation(self):
        day = flat_day()
        env = HomeEnv(BAT, TAR, stats_for([day]))
        env.reset([day, day], 0.5)
        with pytest.raises(ValueError, match="one charge signal per day"):
            env.step(np.zeros(3))
        with pytest.raises(ValueError, match="one charge signal per day"):
            env.step(0.0)

    def test_step_after_last_hour_rejected(self):
        day = flat_day()
        env = HomeEnv(BAT, TAR, stats_for([day]))
        with pytest.raises(ConfigError, match="reset"):
            env.step(np.zeros(1))
        env.reset([day], 0.5)
        for _ in range(24):
            env.step(np.zeros(1))
        with pytest.raises(ConfigError, match="reset"):
            env.step(np.zeros(1))

    def test_step_determinism(self):
        profiles = build_profiles(RunConfig(days=3))
        stats = stats_for(profiles)
        signals = np.random.default_rng(5).uniform(-1, 1, size=(3, 24))
        runs = [step_all(HomeEnv(BAT, TAR, stats), profiles, signals, 0.5) for _ in range(2)]
        (first_a, hours_a), (first_b, hours_b) = runs
        assert bit_patterns(first_a) == bit_patterns(first_b)
        for (e_a, a), (e_b, b) in zip(hours_a, hours_b):
            assert bit_patterns(e_a) == bit_patterns(e_b)
            for name in a.__dataclass_fields__:
                assert bit_patterns(getattr(a, name)) == bit_patterns(getattr(b, name))

    def test_states_are_fresh_arrays(self):
        # a caller may keep or overwrite every state it is given
        profiles = build_profiles(RunConfig(days=2))
        stats = stats_for(profiles)
        signals = np.random.default_rng(6).uniform(-1, 1, size=(2, 24))
        first, hours = step_all(HomeEnv(BAT, TAR, stats), profiles, signals, 0.5)
        kept = [first] + [out.next_state for _, out in hours]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(kept, 2))
        env = HomeEnv(BAT, TAR, stats)
        state, seen = env.reset(profiles, 0.5), []
        for column in signals.T:
            seen.append(state.copy())
            state.fill(np.nan)
            state = env.step(column).next_state
        seen.append(state)
        assert bit_patterns(seen) == bit_patterns(kept)

    def test_normalized_features_in_unit_box(self):
        profiles = build_profiles(RunConfig(days=3))
        env = HomeEnv(BAT, TAR, stats_for(profiles))
        rng = np.random.default_rng(9)
        for day in profiles:
            state = env.reset([day], rng.uniform())
            for _ in range(24):
                assert np.all(state >= 0.0) and np.all(state <= 1.0)
                state = env.step(np.array(BAT.action_levels)[rng.integers(5, size=1)]).next_state

    @pytest.mark.parametrize("initial_soc", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("signals", ["levels", "continuous"])
    def test_matches_scalar_reference(self, initial_soc, signals):
        # 60 days at once against each day stepped alone in floats: every
        # state (the wrapped one after the last hour too), cost and power
        profiles = build_profiles(RunConfig(days=60))
        stats = stats_for(profiles)
        rng = np.random.default_rng(11)
        u = (np.array(BAT.action_levels)[rng.integers(5, size=(60, 24))] if signals == "levels"
             else rng.uniform(-1.0, 1.0, size=(60, 24)))
        first, hours = step_all(HomeEnv(BAT, TAR, stats), profiles, u, initial_soc)
        want = reference_outcomes(profiles, u, stats, initial_soc)
        assert bit_patterns(first) == bit_patterns([w[0].state for w in want])
        for t, (energy, out) in enumerate(hours):
            steps = [w[t] for w in want]
            assert bit_patterns(energy) == bit_patterns([s.energy_kwh for s in steps])
            for name in ("next_state", "cost_eur", "realized_power_kw", "battery_power_kw"):
                assert bit_patterns(getattr(out, name)) == bit_patterns(
                    [getattr(s, name) for s in steps]), (t, name)
        # the signals clip some steps and not others
        clipped = np.array([[s.clipped for s in w] for w in want])
        assert clipped.any() and not clipped.all()


PROP_DAYS = build_profiles(RunConfig(days=8))
PROP_STATS = stats_for(PROP_DAYS)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
signal_values = st.one_of(st.sampled_from(BAT.action_levels), st.floats(-1.0, 1.0))


@st.composite
def episodes(draw, max_days=4):
    """Some fixture days (repeats allowed), a start SoC and a (days, 24) signal array."""
    idx = draw(st.lists(st.integers(0, len(PROP_DAYS) - 1), min_size=1, max_size=max_days))
    soc = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    signals = draw(st.lists(st.lists(signal_values, min_size=24, max_size=24),
                            min_size=len(idx), max_size=len(idx)))
    return [PROP_DAYS[i] for i in idx], soc, np.array(signals)


class TestEnvProperties:
    @PROPERTY
    @given(episodes())
    def test_energy_stays_within_capacity(self, episode):
        days, soc, signals = episode
        _, hours = step_all(HomeEnv(BAT, TAR, PROP_STATS), days, signals, soc)
        for energy, _ in hours[1:]:
            assert np.all((energy >= 0.0) & (energy <= BAT.capacity_kwh))

    @PROPERTY
    @given(episodes())
    def test_energy_change_is_efficiency_scaled_realized_power(self, episode):
        days, soc, signals = episode
        env = HomeEnv(BAT, TAR, PROP_STATS)
        _, hours = step_all(env, days, signals, soc)
        ends = [e for e, _ in hours[1:]] + [env.energy_kwh]
        for (start, out), end in zip(hours, ends):
            p = out.battery_power_kw
            expected = np.where(p >= 0, BAT.efficiency * p, p / BAT.efficiency)
            np.testing.assert_allclose(end - start, expected, rtol=1e-12, atol=1e-12)

    @PROPERTY
    @given(episodes())
    def test_clipped_step_billed_on_realized_power(self, episode):
        days, soc, signals = episode
        env = HomeEnv(BAT, TAR, PROP_STATS)
        _, hours = step_all(env, days, signals, soc)
        ends = [e for e, _ in hours[1:]] + [env.energy_kwh]
        eta = BAT.efficiency
        for t, ((start, out), end) in enumerate(zip(hours, ends)):
            # the days whose step the scalar reference clips
            clipped = [battery_step_one(float(start[d]), float(signals[d, t]), BAT)[2]
                       for d in range(len(days))]
            for d in np.flatnonzero(clipped):
                # the power that moved the energy the battery actually gained or lost
                delta = float(end[d] - start[d])
                realized = delta / eta if delta >= 0 else delta * eta
                assert abs(realized) <= abs(signals[d, t] * BAT.max_power_kw)
                day = days[d]
                p_agg = float(day.demand_kw[t] - day.pv_kw[t]) + realized
                price = float(day.prices_eur_per_kwh[t])
                assert out.realized_power_kw[d] == pytest.approx(p_agg, rel=0, abs=1e-12)
                assert out.cost_eur[d] == pytest.approx(
                    energy_cost_one(p_agg, price, TAR) + capacity_cost_one(p_agg, TAR),
                    rel=0, abs=1e-12)

    @PROPERTY
    @given(episodes(max_days=5))
    def test_batch_equals_each_day_alone(self, episode):
        days, soc, signals = episode
        first, hours = step_all(HomeEnv(BAT, TAR, PROP_STATS), days, signals, soc)
        for d, day in enumerate(days):
            alone_first, alone = step_all(HomeEnv(BAT, TAR, PROP_STATS), [day],
                                          signals[d:d + 1], soc)
            assert bit_patterns(first[d]) == bit_patterns(alone_first[0])
            for (energy, out), (energy_1, out_1) in zip(hours, alone):
                assert bit_patterns(energy[d]) == bit_patterns(energy_1[0])
                for name in out.__dataclass_fields__:
                    assert bit_patterns(getattr(out, name)[d]) == bit_patterns(
                        getattr(out_1, name)[0])


class TestRbc:
    def test_proportional_middle_case(self):
        assert rbc_action(2.0, 0.0, BAT) == pytest.approx(0.5)

    def test_saturates_low_on_pv_surplus(self):
        assert rbc_action(0.0, 5.0, BAT) == -1.0

    def test_balance_point(self):
        assert rbc_action(3.0, 3.0, BAT) == 0.0

    def test_saturates_high(self):
        assert rbc_action(9.0, 0.0, BAT) == 1.0

    def test_output_range_and_continuity(self):
        net_loads = np.linspace(-8.0, 8.0, 4001)
        step = net_loads[1] - net_loads[0]
        vals = rbc_action(np.maximum(net_loads, 0.0), np.maximum(-net_loads, 0.0), BAT)
        assert np.all(vals >= -1.0) and np.all(vals <= 1.0)
        assert np.all(np.abs(np.diff(vals)) <= step / BAT.max_power_kw + 1e-9)


class TestParamValidation:
    def test_asymmetric_levels_rejected(self):
        with pytest.raises(ConfigError):
            replace(BAT, action_levels=(-1.0, 0.0, 0.5, 1.0))

    def test_unsorted_levels_rejected(self):
        with pytest.raises(ConfigError):
            replace(BAT, action_levels=(1.0, -1.0, 0.0))



def test_policy_cost_never_beats_dp_oracle(fixture_profiles, fixture_stats):
    rng = np.random.default_rng(21)

    class RandomFixedPolicy:
        discrete = True
        policy_id = "random"

        def __init__(self, seq):
            self.seq = list(seq)
            self.i = 0

        def decide(self, x, demand_kw=None, pv_kw=None):
            a = self.seq[self.i % len(self.seq)]
            self.i += 1
            return np.full(len(x), a)

    days = fixture_profiles[:3]
    for day, dp in zip(days, evalkit.dp_optimal_cost(days, BAT, TAR, 0.5)):
        for _ in range(5):
            pol = RandomFixedPolicy(rng.integers(0, 5, size=24))
            report = evalkit.run_episode(pol, day, BAT, TAR, fixture_stats, 0.5)
            assert dp <= report.total_cost_eur + 1e-6

