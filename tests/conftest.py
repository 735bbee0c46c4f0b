import json
import struct
from typing import NamedTuple

import numpy as np
import pytest

from treepolicy.binio import MAGIC, read_blocks, write_blocks
from treepolicy.dataio import NormalizationStats, RunConfig, build_profiles
from treepolicy.envsim import aggregate_power, battery_update, capacity_cost, energy_cost


@pytest.fixture(scope="session")
def fixture_profiles():
    """Default synthetic day set shared by read-only tests."""
    return build_profiles(RunConfig())


@pytest.fixture(scope="session")
def fixture_stats(fixture_profiles):
    return NormalizationStats.from_profiles(fixture_profiles)


def tiny_config(**overrides) -> RunConfig:
    """Desk-speed config: the teacher actually trains (small batch/buffer)."""
    base = dict(episodes=60, batch_size=200, buffer_size=600, days=4,
                student_epochs=40, seeds=(0, 1))
    base.update(overrides)
    return RunConfig(**base)


class ConstantPolicy:
    """Always the same action index; handy as an evaluation floor."""

    discrete = True

    def __init__(self, action_index: int, policy_id: str | None = None):
        self.action_index = action_index
        self.policy_id = policy_id or f"const{action_index}"

    def decide(self, x: np.ndarray, demand_kw=None, pv_kw=None) -> np.ndarray:
        return np.full(len(x), self.action_index)


def crisp_walk_one(tree, x) -> int:
    """Reference walk of one state down a crisp tree, node by node."""
    node = 0
    for _ in range(tree.depth):
        v, t = x[tree.feature_index[node]], tree.thresholds[node]
        goes_left = (v < t) if tree.flipped[node] else (v > t)
        node = 2 * node + (1 if goes_left else 2)
    return tree.leaf_actions[node - (2 ** tree.depth - 1)]


# ---------------------------------------------------------------------------
# Scalar reference physics: one day, one float per hour, the way the env
# computed it before it was batched over days. The batched env and the
# array functions must match it bit for bit.
# ---------------------------------------------------------------------------

def battery_step_one(energy_kwh, u_signal, params, dt_hours):
    """(new energy, realized battery power, clipped) for one float state."""
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


def energy_cost_one(p_agg_kw, price, tariff):
    share = 1.0 if p_agg_kw >= 0 else tariff.injection_fraction
    return share * price * p_agg_kw * tariff.timestep_hours


def capacity_cost_one(p_agg_kw, tariff):
    return tariff.capacity_rate_eur_per_kw * max(p_agg_kw, tariff.contracted_min_kw)


def rbc_action_one(demand_kw, pv_kw, params):
    net = demand_kw - pv_kw
    if net <= -params.max_power_kw:
        return -1.0
    if net >= params.max_power_kw:
        return 1.0
    return net / params.max_power_kw


def normalize_one(stats, hour, energy_kwh, price, demand, pv, horizon, capacity_kwh):
    """The normalized 5-vector of one state."""
    def scale(value, lo, hi):
        if hi <= lo:
            return 0.0
        return min(max((value - lo) / (hi - lo), 0.0), 1.0)

    return np.array([
        min(max(hour / (horizon - 1), 0.0), 1.0),
        min(max(energy_kwh / capacity_kwh, 0.0), 1.0),
        scale(price, stats.price_min, stats.price_max),
        scale(demand, stats.demand_min, stats.demand_max),
        scale(pv, stats.pv_min, stats.pv_max),
    ])


class ReferenceStep(NamedTuple):
    energy_kwh: float           # stored energy as the hour starts
    state: np.ndarray           # normalized state the decision saw
    signal: float
    battery_power_kw: float
    realized_power_kw: float
    cost_eur: float
    energy_cost_eur: float
    capacity_cost_eur: float
    clipped: bool
    next_state: np.ndarray      # after the last hour: hour 0 of the same day


def reference_day(decide, day, battery, tariff, stats, initial_soc):
    """Step one day with the scalar reference physics.

    ``decide(x, demand_kw, pv_kw)`` returns the charge signal for the
    normalized 5-vector ``x``. Returns one ``ReferenceStep`` per hour.
    """
    horizon = tariff.horizon_steps
    loads = [(float(p), float(d), float(v))
             for p, d, v in zip(day.prices_eur_per_kwh, day.demand_kw, day.pv_kw)]

    def state_at(hour, energy):
        return normalize_one(stats, hour, energy, *loads[hour], horizon, battery.capacity_kwh)

    energy = initial_soc * battery.capacity_kwh
    x = state_at(0, energy)
    steps = []
    for t in range(horizon):
        price, demand, pv = loads[t]
        u = decide(x, demand, pv)
        new_e, power, clipped = battery_step_one(energy, u, battery, tariff.timestep_hours)
        p_agg = demand - pv + power
        e_cost = energy_cost_one(p_agg, price, tariff)
        c_cost = capacity_cost_one(p_agg, tariff)
        x_next = state_at((t + 1) % horizon, new_e)
        steps.append(ReferenceStep(energy, x, u, power, p_agg, e_cost + c_cost, e_cost, c_cost,
                                   clipped, x_next))
        energy, x = new_e, x_next
    return steps


def dp_cost_one(day, battery, tariff, initial_soc):
    """The exact oracle for one day, as it ran before days were blocked:
    backward induction over state-major (states, actions) tables of next
    state and realized power, with the step cost priced per table entry.
    The blocked oracle must match it bit for bit."""
    energies = np.array([initial_soc * battery.capacity_kwh])
    levels = np.array(battery.action_levels)
    hours = []
    for _ in range(tariff.horizon_steps):
        moves, power, _ = battery_update(energies[:, None], levels, battery,
                                         tariff.timestep_hours)
        energies, nxt = np.unique(moves.ravel(), return_inverse=True)
        hours.append((nxt.reshape(moves.shape), power))
    value = np.zeros(len(energies))
    for t in range(tariff.horizon_steps - 1, -1, -1):
        nxt, power = hours[t]
        p_agg = aggregate_power(float(day.demand_kw[t]), float(day.pv_kw[t]), power)
        step = (energy_cost(p_agg, float(day.prices_eur_per_kwh[t]), tariff)
                + capacity_cost(p_agg, tariff))
        value = (step + value[nxt]).min(axis=1)
    return float(value[0])


def bit_patterns(values):
    """The int64 bit pattern of each float: equal lists mean equal bits,
    signed zeros and NaN payloads included."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def finite_difference(fn, arrays, h=1e-5):
    """Central-difference gradients of scalar fn() w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn()
            flat[i] = orig - h
            fm = fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4, floor=1e-8):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), floor)
        err = np.abs(a - n) / denom
        ok = (err <= rel) | (np.abs(a - n) <= floor)
        assert np.all(ok), f"gradient mismatch: max rel err {err.max()}"


def _split(path) -> tuple[dict, bytes]:
    """The JSON header and the block bytes of the container at ``path``."""
    data = path.read_bytes()
    start = len(MAGIC) + 4
    (hlen,) = struct.unpack("<I", data[len(MAGIC):start])
    return json.loads(data[start:start + hlen]), data[start + hlen:]


def edit_container(path, rows=None, **meta) -> None:
    """Rewrite the container at ``path`` with the meta keys ``meta`` set and each
    block named in ``rows`` cut to its first ``rows[name]`` rows."""
    rows = rows or {}
    codes = {entry["name"]: entry["dtype"] for entry in _split(path)[0]["blocks"]}
    old_meta, arrays = read_blocks(str(path))
    write_blocks(str(path), {**old_meta, **meta},
                 [(name, arrays[name][:rows.get(name)], code) for name, code in codes.items()])


def drop_entry(path, name) -> None:
    """Rewrite the container at ``path`` without its meta key or block ``name``."""
    header, payload = _split(path)
    if name in header["meta"]:
        del header["meta"][name]
    else:
        offset = 0
        for i, entry in enumerate(header["blocks"]):
            size = int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
            if entry["name"] == name:
                payload = payload[:offset] + payload[offset + size:]
                del header["blocks"][i]
                break
            offset += size
        else:
            raise AssertionError(f"{path} has no meta key or block {name!r}")
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + payload)
