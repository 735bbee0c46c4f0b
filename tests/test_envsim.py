import itertools

import numpy as np
import pytest

from treepolicy.dataio import DayProfile, NormalizationStats, RunConfig, build_profiles
from treepolicy.envsim import (
    BatteryParams,
    HomeEnv,
    TariffParams,
    aggregate_power,
    battery_update,
    capacity_cost,
    energy_cost,
    rbc_action,
    step_transition,
)
from treepolicy.errors import ConfigError
from treepolicy import evalkit

BAT = BatteryParams()
TAR = TariffParams()


def flat_day(price=0.1, demand=0.0, pv=0.0):
    return DayProfile(np.full(24, price), np.full(24, demand), np.full(24, pv), "flat")


def stats_for(days):
    return NormalizationStats.from_profiles(days)


class TestBatteryUpdate:
    def test_idle(self):
        assert battery_update(5.0, 0.0, BAT, 1.0) == (5.0, 0.0, False)

    def test_full_charge_hand_value(self):
        new_e, power, clipped = battery_update(5.0, 1.0, BAT, 1.0)
        assert new_e == pytest.approx(5.0 + 0.9 * 4.0)
        assert power == 4.0 and not clipped

    def test_charge_clipped_at_capacity(self):
        new_e, power, clipped = battery_update(9.5, 1.0, BAT, 1.0)
        assert new_e == 10.0
        assert power == pytest.approx(0.5 / 0.9)
        assert clipped

    def test_discharge_clipped_at_zero(self):
        new_e, power, clipped = battery_update(0.5, -1.0, BAT, 1.0)
        assert new_e == 0.0
        assert power == pytest.approx(-0.5 * 0.9)
        assert clipped

    def test_round_trip_efficiency_is_eta_squared(self):
        # charge one hour at full power, then discharge the stored delta
        mid, p_in, _ = battery_update(0.0, 1.0, BAT, 1.0)
        back, p_out, _ = battery_update(mid, -1.0, BAT, 1.0)
        assert back == 0.0
        assert -p_out / p_in == pytest.approx(BAT.efficiency ** 2)
        assert -p_out / p_in <= 0.81 + 1e-12

    def test_energy_bounds_under_random_actions(self):
        rng = np.random.default_rng(0)
        e = 5.0
        for _ in range(10_000):
            e, _, _ = battery_update(e, rng.uniform(-1, 1), BAT, 1.0)
            assert 0.0 <= e <= BAT.capacity_kwh

    def test_energy_bounds_over_random_episodes(self, fixture_profiles, fixture_stats):
        rng = np.random.default_rng(1)
        env = HomeEnv(BAT, TAR, fixture_stats)
        for ep in range(10_000):
            day = fixture_profiles[ep % len(fixture_profiles)]
            env.reset(day, rng.uniform())
            for _ in range(24):
                e = env.step(int(rng.integers(5))).next_state.energy_kwh
                assert 0.0 <= e <= BAT.capacity_kwh


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
        free = TariffParams(capacity_rate_eur_per_kw=0.0)
        assert capacity_cost(100.0, free) == 0.0

    def test_array_costs_match_scalar_costs(self):
        # the oracle prices whole arrays; the env prices one float per step
        p_agg = np.concatenate([np.linspace(-8.0, 8.0, 161), [0.0, -0.0, 4.0]])
        energy = [energy_cost(p, 0.17, TAR) for p in p_agg.tolist()]
        capacity = [capacity_cost(p, TAR) for p in p_agg.tolist()]
        assert all(type(c) is float for c in energy + capacity)
        assert energy_cost(p_agg, 0.17, TAR).tobytes() == np.array(energy).tobytes()
        assert capacity_cost(p_agg, TAR).tobytes() == np.array(capacity).tobytes()


def bit_patterns(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestArrayMatchesScalar:
    """The array paths of the physics equal their float calls element by
    element, bit for bit, and floats still give Python floats."""

    @pytest.mark.parametrize("battery,dt", [
        (BAT, 1.0), (BatteryParams(7.5, 3.0, 0.95, (-1.0, -0.25, 0.0, 0.25, 1.0)), 0.5)])
    def test_battery_update(self, battery, dt):
        cap, move = battery.capacity_kwh, battery.max_power_kw * dt
        energies = [0.0, -0.0, 5e-324, 1.0, cap / 2, float(np.nextafter(cap, 0.0)), cap,
                    cap - battery.efficiency * move, move / battery.efficiency,
                    battery.efficiency * move, np.nan]
        signals = [-1.0, -0.5, -0.0, 0.0, 1e-300, 0.37, 0.5, 1.0, np.nan,
                   *battery.action_levels]
        grid_e, grid_u = np.meshgrid(energies, signals, indexing="ij")
        new_e, power, clipped = battery_update(grid_e, grid_u, battery, dt)
        # the oracle's broadcast form: a column of states against the level row
        col = battery_update(np.array(energies)[:, None], np.array(signals), battery, dt)
        for got, again in zip((new_e, power, clipped), col):
            assert np.array_equal(got, again, equal_nan=True)
        want = [battery_update(e, u, battery, dt) for e, u in itertools.product(energies, signals)]
        assert all(type(e) is float and type(p) is float and type(c) is bool for e, p, c in want)
        assert bit_patterns(new_e.ravel()) == bit_patterns([w[0] for w in want])
        assert bit_patterns(power.ravel()) == bit_patterns([w[1] for w in want])
        assert clipped.ravel().tolist() == [w[2] for w in want]
        assert clipped.any() and not clipped.all()

    def test_rbc_action(self):
        top = BAT.max_power_kw
        loads = [0.0, -0.0, 1.0, top / 2, np.nextafter(top, 0.0), top, top + 1e-9, 2 * top,
                 np.nan]
        demand, pv = (g.ravel() for g in np.meshgrid(loads, loads, indexing="ij"))
        got = rbc_action(demand, pv, BAT)
        want = [rbc_action(d, v, BAT) for d, v in zip(demand.tolist(), pv.tolist())]
        assert all(type(w) is float for w in want)
        assert bit_patterns(got) == bit_patterns(want)
        # net load at exactly +/- max power saturates
        assert {-1.0, 1.0} <= set(want)

    @pytest.mark.parametrize("stats", [
        NormalizationStats(0.05, 0.25, 0.2, 4.1, 0.0, 1.9),
        NormalizationStats(0.1, 0.1, 2.0, 1.0, 0.5, 0.5)],      # hi <= lo everywhere
        ids=["spread", "degenerate"])
    def test_normalize(self, stats):
        hours = [0, 1, 12, 23, 24, -1]
        energies = [0.0, -0.0, 5.0, 10.0, 10.5, -1.0, np.nan]
        prices = [0.05, 0.25, 0.1, 0.3, -0.0, np.nan]
        loads = [0.0, -0.0, 0.2, 4.1, 5.0, 1.9]
        rows = list(itertools.product(hours, energies, prices, loads, loads))
        h, e, p, d, v = (np.array(c) for c in zip(*rows))
        got = stats.normalize(h, e, p, d, v, 24, 10.0)
        assert got.shape == (len(rows), 5)
        want = [stats.normalize(*row, 24, 10.0) for row in rows]
        assert bit_patterns(got) == bit_patterns(want)
        # the rollout's form: one hour for a whole column of days
        at_noon = stats.normalize(12, e, p, d, v, 24, 10.0)
        assert bit_patterns(at_noon) == bit_patterns(
            [stats.normalize(12, *row[1:], 24, 10.0) for row in rows])


class TestEnvStep:
    def test_null_dynamics(self):
        day = flat_day(price=0.1)
        tariff = TariffParams(capacity_rate_eur_per_kw=0.0)
        env = HomeEnv(BAT, tariff, stats_for([day]))
        state = env.reset(day, 0.5)
        out = env.step(2)
        assert out.cost_eur == 0.0
        assert out.next_state.hour == state.hour + 1
        assert out.next_state.energy_kwh == state.energy_kwh
        assert not out.clipped

    def test_single_step_cost_composition(self):
        day = flat_day(price=0.1, demand=2.0)
        env = HomeEnv(BAT, TAR, stats_for([day]))
        env.reset(day, 0.5)
        out = env.step(2)
        # energy 2 kW * 0.1 plus capacity floor 4 kW * 0.05
        assert out.cost_eur == pytest.approx(0.4)
        assert out.energy_cost_eur == pytest.approx(0.2)
        assert out.capacity_cost_eur == pytest.approx(0.2)

    def test_cost_field_consistency(self):
        rng = np.random.default_rng(4)
        profiles = build_profiles(RunConfig(days=2))
        env = HomeEnv(BAT, TAR, stats_for(profiles))
        env.reset(profiles[0], 0.5)
        for _ in range(24):
            out = env.step(int(rng.integers(5)))
            assert out.cost_eur == pytest.approx(
                out.energy_cost_eur + out.capacity_cost_eur, abs=1e-9)
            recomputed_e = energy_cost(out.realized_power_kw,
                                       _price_at(profiles[0], out), TAR)
            assert out.energy_cost_eur == pytest.approx(recomputed_e, abs=1e-9)

    def test_episode_sum_matches_independent_oracle(self):
        profiles = build_profiles(RunConfig(days=1))
        day = profiles[0]
        env = HomeEnv(BAT, TAR, stats_for(profiles))
        env.reset(day, 0.5)
        total = 0.0
        for _ in range(24):
            total += env.step(2).cost_eur

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

    def test_invalid_action_index_is_contract_violation(self):
        day = flat_day()
        env = HomeEnv(BAT, TAR, stats_for([day]))
        env.reset(day, 0.5)
        with pytest.raises(ValueError):
            env.step(5)
        with pytest.raises(ValueError):
            env.step(-1)

    def test_pure_step_function_determinism(self):
        profiles = build_profiles(RunConfig(days=1))
        stats = stats_for(profiles)
        env = HomeEnv(BAT, TAR, stats)
        state = env.reset(profiles[0], 0.5)
        a = step_transition(state, BAT.action_levels[4], profiles[0], BAT, TAR, stats)
        b = step_transition(state, BAT.action_levels[4], profiles[0], BAT, TAR, stats)
        assert a.cost_eur == b.cost_eur
        assert a.next_state.energy_kwh == b.next_state.energy_kwh
        np.testing.assert_array_equal(a.next_state.normalized, b.next_state.normalized)

    def test_normalized_features_in_unit_box(self):
        profiles = build_profiles(RunConfig(days=3))
        env = HomeEnv(BAT, TAR, stats_for(profiles))
        rng = np.random.default_rng(9)
        for day in profiles:
            state = env.reset(day, rng.uniform())
            for _ in range(24):
                assert np.all(state.normalized >= 0.0) and np.all(state.normalized <= 1.0)
                state = env.step(int(rng.integers(5))).next_state


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
        vals = np.array([rbc_action(max(p, 0.0), max(-p, 0.0), BAT) for p in net_loads])
        assert np.all(vals >= -1.0) and np.all(vals <= 1.0)
        assert np.all(np.abs(np.diff(vals)) <= step / BAT.max_power_kw + 1e-9)


class TestParamValidation:
    def test_asymmetric_levels_rejected(self):
        with pytest.raises(ConfigError):
            BatteryParams(action_levels=(-1.0, 0.0, 0.5, 1.0))

    def test_unsorted_levels_rejected(self):
        with pytest.raises(ConfigError):
            BatteryParams(action_levels=(1.0, -1.0, 0.0))

    def test_efficiency_bounds(self):
        with pytest.raises(ConfigError):
            BatteryParams(efficiency=0.0)
        with pytest.raises(ConfigError):
            BatteryParams(efficiency=1.2)
        BatteryParams(efficiency=1.0)

    def test_bad_initial_soc_rejected(self):
        day = flat_day()
        env = HomeEnv(BAT, TAR, stats_for([day]))
        with pytest.raises(ConfigError):
            env.reset(day, 1.5)


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

    for day in fixture_profiles[:3]:
        dp = evalkit.dp_optimal_cost(day, BAT, TAR)
        for _ in range(5):
            pol = RandomFixedPolicy(rng.integers(0, 5, size=24))
            report = evalkit.run_episode(pol, day, BAT, TAR, fixture_stats)
            assert dp <= report.total_cost_eur + 1e-6


def _price_at(day, outcome):
    # price of the hour the outcome was produced in (next_state is one step later)
    h = outcome.next_state.hour - 1
    return float(day.prices_eur_per_kwh[h % 24])
