"""Deterministic battery home-energy environment.

One episode is a 24-hour day. Each step the controller picks a charge signal
in [-1, 1] (directly, or as an index into the discrete level set), the
battery integrates it with asymmetric efficiency, and the step cost is the
sum of an energy term (consumption priced at the hourly rate, injection
credited at a fraction of it) and a capacity term on the aggregate power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

N_FEATURES = 5
FEATURE_NAMES = ("hour", "soc", "price", "demand", "pv")
ACTION_NAMES = ("discharge_full", "discharge_half", "idle", "charge_half", "charge_full")


@dataclass(frozen=True)
class BatteryParams:
    capacity_kwh: float = 10.0
    max_power_kw: float = 4.0
    efficiency: float = 0.9
    action_levels: tuple[float, ...] = (-1.0, -0.5, 0.0, 0.5, 1.0)

    def __post_init__(self):
        if self.capacity_kwh <= 0 or self.max_power_kw <= 0:
            raise ConfigError("battery capacity and max power must be positive")
        if not (0.0 < self.efficiency <= 1.0):
            raise ConfigError(f"efficiency must be in (0, 1], got {self.efficiency}")
        lv = self.action_levels
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ConfigError("action_levels must be strictly increasing")
        if 0.0 not in lv or any(-l not in lv for l in lv):
            raise ConfigError("action_levels must contain 0 and be symmetric around it")


@dataclass(frozen=True)
class TariffParams:
    injection_fraction: float = 0.25
    capacity_rate_eur_per_kw: float = 0.05
    contracted_min_kw: float = 4.0
    timestep_hours: float = 1.0
    horizon_steps: int = 24

    def __post_init__(self):
        if self.timestep_hours <= 0 or self.horizon_steps <= 0:
            raise ConfigError("timestep and horizon must be positive")
        if self.capacity_rate_eur_per_kw < 0:
            raise ConfigError("capacity rate cannot be negative")


@dataclass(frozen=True)
class EnvState:
    """Raw physical quantities at one hour plus their normalized 5-vector."""

    hour: int
    energy_kwh: float
    price_eur_per_kwh: float
    demand_kw: float
    pv_kw: float
    normalized: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class StepOutcome:
    next_state: EnvState
    cost_eur: float
    energy_cost_eur: float
    capacity_cost_eur: float
    realized_power_kw: float
    battery_power_kw: float
    clipped: bool


def clamp(x, lo: float, hi: float) -> np.ndarray:
    """``min(max(x, lo), hi)`` elementwise, with Python's rules for ties,
    signed zeros and NaN (``np.maximum(-0.0, 0.0)`` is +0.0, Python's
    ``max(-0.0, 0.0)`` is -0.0)."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def battery_update(energy_kwh, u_signal, params: BatteryParams, dt_hours: float):
    """Integrate one battery step.

    Positive signals charge at ``u * max_power``; the stored energy gains the
    efficiency-scaled amount when charging and loses the inverse when
    discharging. If the raw update would leave [0, capacity] the energy is
    clipped and the realized grid-side power is recomputed from the actual
    energy change, so costs always reflect what physically happened.

    Returns (new_energy_kwh, realized_battery_power_kw, clipped). Elementwise
    when either input is an array (the two broadcast), with the float path's
    arithmetic bit for bit; floats give floats.
    """
    if isinstance(energy_kwh, np.ndarray) or isinstance(u_signal, np.ndarray):
        return _battery_update_array(np.asarray(energy_kwh, dtype=float),
                                     np.asarray(u_signal, dtype=float), params, dt_hours)
    power = u_signal * params.max_power_kw
    eta = params.efficiency
    if power >= 0:
        raw = energy_kwh + eta * power * dt_hours
    else:
        raw = energy_kwh + power * dt_hours / eta
    new_e = min(max(raw, 0.0), params.capacity_kwh)
    clipped = new_e != raw
    if clipped:
        delta = new_e - energy_kwh
        power = delta / (eta * dt_hours) if delta >= 0 else delta * eta / dt_hours
    return new_e, power, clipped


def _battery_update_array(energy_kwh: np.ndarray, u_signal: np.ndarray,
                          params: BatteryParams, dt_hours: float):
    power = u_signal * params.max_power_kw
    eta = params.efficiency
    raw = energy_kwh + np.where(power >= 0, eta * power * dt_hours, power * dt_hours / eta)
    new_e = clamp(raw, 0.0, params.capacity_kwh)
    clipped = new_e != raw
    delta = new_e - energy_kwh
    refit = np.where(delta >= 0, delta / (eta * dt_hours), delta * eta / dt_hours)
    return new_e, np.where(clipped, refit, power), clipped


def aggregate_power(demand_kw: float, pv_kw: float, battery_power_kw: float) -> float:
    """Net grid draw: PV is a generation magnitude and offsets demand."""
    return demand_kw - pv_kw + battery_power_kw


def energy_cost(p_agg_kw, price_eur_per_kwh: float, tariff: TariffParams):
    """Consumption billed at the hourly price; injection credited at a fraction of it.

    Elementwise on an array of powers; a float power gives a float cost.
    """
    if isinstance(p_agg_kw, np.ndarray):
        share = np.where(p_agg_kw >= 0, 1.0, tariff.injection_fraction)
    else:
        share = 1.0 if p_agg_kw >= 0 else tariff.injection_fraction
    return share * price_eur_per_kwh * p_agg_kw * tariff.timestep_hours


def capacity_cost(p_agg_kw, tariff: TariffParams):
    """Per-step capacity charge on max(realized power, contracted minimum).

    Elementwise on an array of powers; a float power gives a float cost.
    """
    floor = tariff.contracted_min_kw
    if isinstance(p_agg_kw, np.ndarray):
        return tariff.capacity_rate_eur_per_kw * np.maximum(p_agg_kw, floor)
    return tariff.capacity_rate_eur_per_kw * max(p_agg_kw, floor)


def rbc_action(demand_kw, pv_kw, params: BatteryParams):
    """Built-in battery controller: signal proportional to net load, saturated at +/-1.

    Elementwise on arrays of demand and PV; floats give a float.
    """
    net = demand_kw - pv_kw
    if isinstance(net, np.ndarray):
        return np.where(net <= -params.max_power_kw, -1.0,
                        np.where(net >= params.max_power_kw, 1.0, net / params.max_power_kw))
    if net <= -params.max_power_kw:
        return -1.0
    if net >= params.max_power_kw:
        return 1.0
    return net / params.max_power_kw


def _state_at(day, hour: int, energy: float, battery: BatteryParams,
              tariff: TariffParams, stats) -> EnvState:
    price = float(day.prices_eur_per_kwh[hour])
    demand = float(day.demand_kw[hour])
    pv = float(day.pv_kw[hour])
    norm = stats.normalize(hour, energy, price, demand, pv,
                           tariff.horizon_steps, battery.capacity_kwh)
    return EnvState(hour, energy, price, demand, pv, norm)


def step_transition(state: EnvState, u_signal: float, day, battery: BatteryParams,
                    tariff: TariffParams, stats) -> StepOutcome:
    """Pure one-hour transition under a continuous charge signal in [-1, 1]."""
    new_e, bat_power, clipped = battery_update(state.energy_kwh, u_signal, battery,
                                               tariff.timestep_hours)
    p_agg = aggregate_power(state.demand_kw, state.pv_kw, bat_power)
    e_cost = energy_cost(p_agg, state.price_eur_per_kwh, tariff)
    c_cost = capacity_cost(p_agg, tariff)
    next_hour = (state.hour + 1) % tariff.horizon_steps
    next_state = _state_at(day, next_hour, new_e, battery, tariff, stats)
    return StepOutcome(next_state, e_cost + c_cost, e_cost, c_cost, p_agg, bat_power, clipped)


class HomeEnv:
    """Stateful episode wrapper around the pure transition: the teacher's
    online environment, stepped one hour at a time during training.

    Owns the battery/tariff parameters and the normalization statistics so
    that every state it emits carries a ready-to-use normalized feature
    vector. One instance rolls one day at a time; instances share nothing.
    Evaluation rolls whole day sets at once with ``evalkit.rollout`` over
    the same physics functions.
    """

    def __init__(self, battery: BatteryParams, tariff: TariffParams, stats):
        self.battery = battery
        self.tariff = tariff
        self.stats = stats
        self._day = None
        self._state = None
        self._step_idx = 0

    def reset(self, day, initial_soc: float = 0.5) -> EnvState:
        if len(day.prices_eur_per_kwh) != self.tariff.horizon_steps:
            raise ConfigError(
                f"day '{day.label}' has {len(day.prices_eur_per_kwh)} steps, "
                f"expected {self.tariff.horizon_steps}"
            )
        if not (0.0 <= initial_soc <= 1.0):
            raise ConfigError(f"initial_soc must be in [0, 1], got {initial_soc}")
        self._day = day
        self._step_idx = 0
        self._state = _state_at(day, 0, initial_soc * self.battery.capacity_kwh,
                                self.battery, self.tariff, self.stats)
        return self._state

    @property
    def state(self) -> EnvState:
        return self._state

    @property
    def done(self) -> bool:
        return self._step_idx >= self.tariff.horizon_steps

    def step_signal(self, u_signal: float) -> StepOutcome:
        """Advance one hour under a continuous charge signal in [-1, 1]."""
        if self.done:
            raise ConfigError("episode is finished; call reset() first")
        outcome = step_transition(self._state, u_signal, self._day,
                                  self.battery, self.tariff, self.stats)
        self._step_idx += 1
        self._state = outcome.next_state
        return outcome

    def step(self, action_index: int) -> StepOutcome:
        """Advance one hour under a discrete action index."""
        levels = self.battery.action_levels
        if not (isinstance(action_index, (int, np.integer)) and 0 <= action_index < len(levels)):
            raise ValueError(f"action index {action_index!r} outside [0, {len(levels)})")
        return self.step_signal(levels[action_index])
