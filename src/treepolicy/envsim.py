"""Deterministic battery home-energy environment.

One episode is a day, one step per hourly row of its profile, and ``HomeEnv``
steps a batch of days together. A step is one hour: the battery integrates
each day's charge signal in [-1, 1] with asymmetric efficiency, and the step
cost is an energy term (consumption at the hourly price, injection credited
at a fraction of it) plus a capacity term on the aggregate power. Every
function here is elementwise over arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

FEATURE_NAMES = ("hour", "soc", "price", "demand", "pv")
ACTION_NAMES = ("discharge_full", "discharge_half", "idle", "charge_half", "charge_full")


@dataclass(frozen=True)
class BatteryParams:
    capacity_kwh: float
    max_power_kw: float
    efficiency: float
    action_levels: tuple[float, ...]

    def __post_init__(self):
        lv = self.action_levels
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ConfigError("action_levels must be strictly increasing")
        if 0.0 not in lv or any(-l not in lv for l in lv):
            raise ConfigError("action_levels must contain 0 and be symmetric around it")


@dataclass(frozen=True)
class TariffParams:
    injection_fraction: float
    capacity_rate_eur_per_kw: float
    contracted_min_kw: float


@dataclass(frozen=True)
class StepOutcome:
    """One hour of every day in the batch; each field has one entry per day."""

    next_state: np.ndarray          # (days, 5) normalized state of the next hour
    cost_eur: np.ndarray
    realized_power_kw: np.ndarray   # aggregate grid power
    battery_power_kw: np.ndarray    # realized battery power


def clamp(x, lo: float, hi: float) -> np.ndarray:
    """``min(max(x, lo), hi)`` elementwise, with Python's rules for ties,
    signed zeros and NaN (``np.maximum(-0.0, 0.0)`` is +0.0, Python's
    ``max(-0.0, 0.0)`` is -0.0)."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def battery_update(energy_kwh, u_signal, params: BatteryParams):
    """Integrate one hour of the battery, elementwise over the broadcast inputs.

    Positive signals charge at ``u * max_power``; the stored energy gains the
    efficiency-scaled amount when charging and loses the inverse when
    discharging. If the raw update would leave [0, capacity] the energy is
    clipped and the realized grid-side power is recomputed from the actual
    energy change, so costs always reflect what physically happened.

    Returns (new_energy_kwh, realized_battery_power_kw).
    """
    power = u_signal * params.max_power_kw
    eta = params.efficiency
    raw = energy_kwh + np.where(power >= 0, eta * power, power / eta)
    new_e = clamp(raw, 0.0, params.capacity_kwh)
    clipped = new_e != raw
    delta = new_e - energy_kwh
    refit = np.where(delta >= 0, delta / eta, delta * eta)
    return new_e, np.where(clipped, refit, power)


def aggregate_power(demand_kw, pv_kw, battery_power_kw):
    """Net grid draw: PV is a generation magnitude and offsets demand."""
    return demand_kw - pv_kw + battery_power_kw


def energy_cost(p_agg_kw, price_eur_per_kwh, tariff: TariffParams):
    """One hour of consumption billed at the hourly price; injection credited
    at a fraction of it."""
    share = np.where(p_agg_kw >= 0, 1.0, tariff.injection_fraction)
    return share * price_eur_per_kwh * p_agg_kw


def capacity_cost(p_agg_kw, tariff: TariffParams):
    """Per-step capacity charge on max(realized power, contracted minimum)."""
    floor = tariff.contracted_min_kw
    return tariff.capacity_rate_eur_per_kw * np.maximum(p_agg_kw, floor)


def rbc_action(demand_kw, pv_kw, params: BatteryParams):
    """Built-in battery controller: signal proportional to net load, saturated at +/-1."""
    net = demand_kw - pv_kw
    return np.where(net <= -params.max_power_kw, -1.0,
                    np.where(net >= params.max_power_kw, 1.0, net / params.max_power_kw))


class HomeEnv:
    """A batch of days stepped together, one hour at a time: the teacher's
    online environment (a batch of one day) and every evaluation rollout.

    Owns the battery/tariff parameters and the normalization statistics, so
    every state it emits is the normalized (days, 5) feature matrix the
    policies read. The days are independent; each keeps its own stored
    energy.
    """

    def __init__(self, battery: BatteryParams, tariff: TariffParams, stats):
        self.battery = battery
        self.tariff = tariff
        self.stats = stats
        self.hour = self.horizon = 0            # finished until the first reset
        self.energy_kwh = None                  # (days,) stored energy as the hour starts

    def reset(self, days, initial_soc: float) -> np.ndarray:
        """Start every day of the ``dataio.DaySet`` ``days`` at ``initial_soc``; returns
        the hour-0 states. The episode has one hour per hour of the set, whose
        read-only arrays the env reads in place. The days and ``initial_soc`` are
        checked where they enter: ``parse_profiles``, ``RunConfig``."""
        self._prices, self._demand, self._pv = days.prices_eur_per_kwh, days.demand_kw, days.pv_kw
        self.horizon = days.hours
        # (days, hours, 5): every feature but the SoC is fixed, so normalized once
        self._features = self.stats.normalize(np.arange(self.horizon), self._prices,
                                              self._demand, self._pv, self.horizon)
        self.hour = 0
        self.energy_kwh = np.full(len(days), initial_soc * self.battery.capacity_kwh)
        return self._observe(0)

    def _observe(self, hour: int) -> np.ndarray:
        """A fresh (days, 5) state: the hour's normalized features and the SoC."""
        state = self._features[:, hour].copy()
        state[:, 1] = clamp(self.energy_kwh / self.battery.capacity_kwh, 0.0, 1.0)
        return state

    @property
    def done(self) -> bool:
        return self.hour >= self.horizon

    @property
    def demand_kw(self) -> np.ndarray:
        """Raw demand of the current hour, one entry per day."""
        return self._demand[:, self.hour]

    @property
    def pv_kw(self) -> np.ndarray:
        """Raw PV of the current hour, one entry per day."""
        return self._pv[:, self.hour]

    def step(self, signal: np.ndarray) -> StepOutcome:
        """Advance every day one hour under its charge signal in [-1, 1].

        After the last hour the next state wraps to hour 0 of the same day.
        """
        if self.done:
            raise ConfigError("episode is finished; call reset() first")
        if np.shape(signal) != self.energy_kwh.shape:
            raise ValueError(f"need one charge signal per day {self.energy_kwh.shape}, "
                             f"got shape {np.shape(signal)}")
        t = self.hour
        self.energy_kwh, bat_power = battery_update(self.energy_kwh, signal, self.battery)
        p_agg = aggregate_power(self._demand[:, t], self._pv[:, t], bat_power)
        cost = (energy_cost(p_agg, self._prices[:, t], self.tariff)
                + capacity_cost(p_agg, self.tariff))
        self.hour = t + 1
        next_state = self._observe(self.hour % self.horizon)
        return StepOutcome(next_state, cost, p_agg, bat_power)
