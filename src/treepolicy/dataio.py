"""Profile ingestion, synthetic fixtures, normalization, and run configuration.

Profile files are plain CSV with header ``hour,price,demand,pv``, one row per
hour and days concatenated back to back; the hour column must cycle 0..23.
Run configuration is a flat ``key=value`` text file where every key has a
default, so an empty file is a valid config.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .envsim import ACTION_NAMES, BatteryParams, TariffParams, clamp
from .errors import ConfigError, ProfileError

HOURS = 24


@dataclass
class DayProfile:
    prices_eur_per_kwh: np.ndarray
    demand_kw: np.ndarray
    pv_kw: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.prices_eur_per_kwh = np.asarray(self.prices_eur_per_kwh, dtype=float)
        self.demand_kw = np.asarray(self.demand_kw, dtype=float)
        self.pv_kw = np.asarray(self.pv_kw, dtype=float)
        n = len(self.prices_eur_per_kwh)
        if not (len(self.demand_kw) == len(self.pv_kw) == n == HOURS):
            raise ProfileError(f"day '{self.label}' must have exactly {HOURS} hourly rows")
        if np.any(self.demand_kw < 0) or np.any(self.pv_kw < 0):
            raise ProfileError(f"day '{self.label}' has negative demand or pv")


# ---------------------------------------------------------------------------
# CSV profiles
# ---------------------------------------------------------------------------

PROFILE_HEADER = "hour,price,demand,pv"


def load_profiles(path: str) -> list[DayProfile]:
    """Parse a concatenated-days profile CSV into one DayProfile per day."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ProfileError(f"cannot read profile file {path!r}: {exc}") from None
    return parse_profiles(raw, origin=path)


def parse_profiles(raw: bytes | str, origin: str = "<data>") -> list[DayProfile]:
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProfileError(f"{origin} is not utf-8 text: {exc}") from None
    else:
        text = raw
    lines = text.splitlines()
    if not lines or lines[0].strip() != PROFILE_HEADER:
        raise ProfileError(f"expected header '{PROFILE_HEADER}'", line=1)

    days: list[DayProfile] = []
    cur: list[tuple[float, float, float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ProfileError(f"expected 4 columns, got {len(parts)}", line=lineno)
        try:
            hour = int(parts[0])
            price, demand, pv = (float(p) for p in parts[1:])
        except ValueError:
            raise ProfileError(f"unparsable row {line!r}", line=lineno) from None
        if hour != len(cur):
            raise ProfileError(
                f"hour column must cycle 0..{HOURS - 1}; got {hour} where {len(cur)} expected",
                line=lineno,
            )
        if not (math.isfinite(price) and math.isfinite(demand) and math.isfinite(pv)):
            raise ProfileError(f"price, demand and pv must be finite, got {line!r}", line=lineno)
        if demand < 0 or pv < 0:
            raise ProfileError("demand and pv must be non-negative", line=lineno)
        cur.append((price, demand, pv))
        if len(cur) == HOURS:
            arr = np.array(cur)
            days.append(DayProfile(arr[:, 0], arr[:, 1], arr[:, 2], label=f"day{len(days):03d}"))
            cur = []
    if cur:
        raise ProfileError(
            f"day {len(days)} ('day{len(days):03d}') is short: {len(cur)} of {HOURS} rows",
            line=len(lines),
        )
    if not days:
        raise ProfileError("file contains no data rows", line=1)
    return days


def save_profiles(profiles: list[DayProfile], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_profiles(profiles))


def dump_profiles(profiles: list[DayProfile]) -> str:
    out = io.StringIO()
    out.write(PROFILE_HEADER + "\n")
    for day in profiles:
        for h in range(HOURS):
            out.write(f"{h},{float(day.prices_eur_per_kwh[h])!r},"
                      f"{float(day.demand_kw[h])!r},{float(day.pv_kw[h])!r}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Synthetic fixtures
# ---------------------------------------------------------------------------

def square_wave_prices(low: float, high: float, high_start_hour: int, high_end_hour: int) -> np.ndarray:
    """Day/night style tariff: ``high`` inside [start, end), ``low`` elsewhere."""
    if not (0 <= high_start_hour < high_end_hour <= HOURS):
        raise ConfigError(
            f"need 0 <= start < end <= {HOURS}, got [{high_start_hour}, {high_end_hour})"
        )
    if low >= high:
        raise ConfigError(f"low price {low} must be below high price {high}")
    prices = np.full(HOURS, float(low))
    prices[high_start_hour:high_end_hour] = high
    return prices


def _bell(hours: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((hours - center) / width) ** 2)


def generate_synthetic_days(
    n_days: int,
    prices: np.ndarray,
    rng: np.random.Generator,
    pv_enabled: bool = True,
) -> list[DayProfile]:
    """Household fixture: morning/evening demand peaks and a midday PV bell.

    Day-to-day variation comes from seeded amplitude jitter so multiple days
    are distinct but reproducible.
    """
    hours = np.arange(HOURS, dtype=float)
    days = []
    for i in range(n_days):
        morning = rng.uniform(1.2, 1.8) * _bell(hours, 7.5, 1.4)
        evening = rng.uniform(2.4, 3.2) * _bell(hours, 19.0, 2.2)
        base = 0.4 + rng.uniform(-0.05, 0.1, size=HOURS)
        demand = np.maximum(base + morning + evening, 0.0)
        if pv_enabled:
            pv = rng.uniform(1.2, 1.8) * _bell(hours, 13.0, 2.4)
            pv[pv < 0.01] = 0.0
        else:
            pv = np.zeros(HOURS)
        days.append(DayProfile(np.array(prices, dtype=float), demand, pv, label=f"day{i:03d}"))
    return days


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationStats:
    """Profile-wide min/max used to map raw features onto [0, 1]."""

    price_min: float
    price_max: float
    demand_min: float
    demand_max: float
    pv_min: float
    pv_max: float

    @classmethod
    def from_profiles(cls, profiles: list[DayProfile]) -> "NormalizationStats":
        prices = np.concatenate([d.prices_eur_per_kwh for d in profiles])
        demand = np.concatenate([d.demand_kw for d in profiles])
        pv = np.concatenate([d.pv_kw for d in profiles])
        return cls(float(prices.min()), float(prices.max()), float(demand.min()),
                   float(demand.max()), float(pv.min()), float(pv.max()))

    def normalize(self, hour, energy_kwh, price, demand, pv, horizon: int,
                  capacity_kwh: float) -> np.ndarray:
        """(hour, soc, price, demand, pv), each clipped to [0, 1].

        The other inputs broadcast against ``energy_kwh``, and the result
        gains a trailing axis of 5: an (n,) energy column gives (n, 5).
        """
        out = np.empty(np.shape(energy_kwh) + (5,))
        out[..., 0] = hour / (horizon - 1)
        out[..., 1] = energy_kwh / capacity_kwh
        for col, (value, lo, hi) in enumerate(((price, self.price_min, self.price_max),
                                               (demand, self.demand_min, self.demand_max),
                                               (pv, self.pv_min, self.pv_max)), start=2):
            out[..., col] = 0.0 if hi <= lo else (value - lo) / (hi - lo)
        return clamp(out, 0.0, 1.0)

    def denormalize_feature(self, name: str, value: float) -> float:
        lo, hi = {
            "price": (self.price_min, self.price_max),
            "demand": (self.demand_min, self.demand_max),
            "pv": (self.pv_min, self.pv_max),
        }[name]
        return lo + value * (hi - lo)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationStats":
        return cls(**{f.name: float(d[f.name]) for f in fields(cls)})


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Every knob for a full train/distill/evaluate run, flat and defaulted."""

    # environment
    battery_capacity_kwh: float = 10.0
    battery_max_power_kw: float = 4.0
    battery_efficiency: float = 0.9
    action_levels: tuple[float, ...] = (-1.0, -0.5, 0.0, 0.5, 1.0)
    injection_fraction: float = 0.25
    capacity_rate_eur_per_kw: float = 0.05
    contracted_min_kw: float = 4.0
    timestep_hours: float = 1.0
    initial_soc: float = 0.5
    # data
    price_mode: str = "square"          # square | file
    price_low: float = 0.05
    price_high: float = 0.25
    price_high_start: int = 8
    price_high_end: int = 20
    profile_path: str = ""
    days: int = 16
    pv_enabled: bool = True
    data_seed: int = 7
    # teacher
    hidden_sizes: tuple[int, ...] = (64, 64)
    learning_rate: float = 0.001
    batch_size: int = 1000
    buffer_size: int = 5000
    target_blend: float = 0.1
    gamma: float = 0.99
    episodes: int = 800
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.8
    teacher_seed: int = 0
    # student
    student_depth: int = 2
    temperature: float = 0.03
    student_epochs: int = 400
    student_batch_size: int = 64
    student_learning_rate: float = 0.001
    feature_sparsity: float = 0.03
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    # evaluation
    heatmap_grid: int = 41
    heatmap_fixed_hour: int = 12
    heatmap_fixed_pv: float = 0.0

    def __post_init__(self):
        if self.student_depth not in (2, 3):
            raise ConfigError(f"student_depth must be 2 or 3, got {self.student_depth}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if len(self.seeds) < 1:
            raise ConfigError("need at least one student seed")
        if self.price_mode not in ("square", "file"):
            raise ConfigError(f"price_mode must be 'square' or 'file', got {self.price_mode!r}")
        if not (0.0 <= self.initial_soc <= 1.0):
            raise ConfigError(f"initial_soc must be in [0, 1], got {self.initial_soc}")
        if self.heatmap_grid < 1:
            raise ConfigError(f"heatmap_grid must be at least 1, got {self.heatmap_grid}")
        for key in ("days", "episodes", "student_batch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if not (self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if len(self.action_levels) != len(ACTION_NAMES):
            raise ConfigError(f"action_levels needs {len(ACTION_NAMES)} levels, one per action "
                              f"name, got {len(self.action_levels)}")

    def battery(self) -> BatteryParams:
        return BatteryParams(self.battery_capacity_kwh, self.battery_max_power_kw,
                             self.battery_efficiency, tuple(self.action_levels))

    def tariff(self) -> TariffParams:
        return TariffParams(self.injection_fraction, self.capacity_rate_eur_per_kw,
                            self.contracted_min_kw, self.timestep_hours)

    @property
    def horizon_steps(self) -> int:
        """Steps per episode: a day is always ``HOURS`` hourly rows (not a key)."""
        return HOURS

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def to_text(self) -> str:
        """key=value snapshot that parse_config reads back identically."""
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            out.append(f"{f.name}={v}")
        return "\n".join(out) + "\n"

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value lines ('#' comments allowed) into a RunConfig."""
    known = {f.name: f for f in fields(RunConfig)}
    defaults = RunConfig()
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in known:
            valid = ", ".join(sorted(known))
            raise ConfigError(f"config line {lineno}: unknown key {key!r}; valid keys: {valid}")
        default = getattr(defaults, key)
        try:
            if isinstance(default, bool):
                values[key] = _parse_bool(raw)
            elif isinstance(default, int):
                values[key] = int(raw)
            elif isinstance(default, float):
                values[key] = float(raw)
            elif isinstance(default, tuple):
                elem = type(default[0])
                values[key] = tuple(elem(x) for x in raw.split(",") if x.strip() != "")
            else:
                values[key] = raw
        except ValueError:
            raise ConfigError(f"config line {lineno}: cannot parse {raw!r} for key {key!r}") from None
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None


def build_profiles(config: RunConfig) -> list[DayProfile]:
    """Materialize the day set the config describes (synthetic or from file)."""
    if config.price_mode == "file":
        if not config.profile_path:
            raise ConfigError("price_mode=file requires profile_path")
        return load_profiles(config.profile_path)
    prices = square_wave_prices(config.price_low, config.price_high,
                                config.price_high_start, config.price_high_end)
    rng = np.random.default_rng(config.data_seed)
    return generate_synthetic_days(config.days, prices, rng, pv_enabled=config.pv_enabled)
