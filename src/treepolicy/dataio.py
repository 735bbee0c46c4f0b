"""Profile ingestion, the CSV formatter, synthetic fixtures, normalization, and
run configuration.

Profile files are plain CSV with header ``hour,price,demand,pv``, one row per
hour and days concatenated back to back; the hour column must cycle 0..23.
Every CSV table the pipeline writes, profiles included, goes through ``csv_text``.
Run configuration is a flat ``key=value`` text file where every key has a
default, so an empty file is a valid config.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .envsim import ACTION_NAMES, FEATURE_NAMES, BatteryParams, TariffParams
from .errors import ConfigError, ProfileError

HOURS = 24


@dataclass
class DayProfile:
    """One day of ``HOURS`` hourly rows, demand and PV non-negative: the rows
    ``parse_profiles`` and the synthetic generator check or build."""

    prices_eur_per_kwh: np.ndarray
    demand_kw: np.ndarray
    pv_kw: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.prices_eur_per_kwh = np.asarray(self.prices_eur_per_kwh, dtype=float)
        self.demand_kw = np.asarray(self.demand_kw, dtype=float)
        self.pv_kw = np.asarray(self.pv_kw, dtype=float)


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


def parse_profiles(raw: bytes, origin: str = "<data>") -> list[DayProfile]:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProfileError(f"{origin} is not utf-8 text: {exc}") from None
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
    rows = ((h, *values) for day in profiles
            for h, values in enumerate(zip(day.prices_eur_per_kwh.tolist(),
                                           day.demand_kw.tolist(), day.pv_kw.tolist())))
    write_text(path, csv_text(PROFILE_HEADER.split(","), rows))


def write_text(path: str, text: str) -> None:
    """Every text artifact: UTF-8 with ``\\n`` line ends on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def csv_text(header, rows) -> str:
    """Every table the pipeline writes: the header line, then one line per row,
    cells joined by commas and each line ended by ``\\n``. A cell is written
    with ``str``, so a ``str`` goes through as is (unquoted) and a Python int or
    float as its ``repr``, which for floats is the shortest text that parses
    back to the same value. Pass Python scalars (``.tolist()``), not numpy ones.
    ``rows`` may be any iterable and is read once, so a generator never holds
    the whole table's cells at once."""
    lines = (",".join(map(str, row)) + "\n" for row in itertools.chain([header], rows))
    # Joined 256 lines at a time: a long table (a teacher's loss curve) then never
    # holds all its small line strings at once, which would leave the
    # interpreter's small-object heap grown for the rest of the process.
    return "".join(iter(lambda: "".join(itertools.islice(lines, 256)), ""))


# ---------------------------------------------------------------------------
# Synthetic fixtures
# ---------------------------------------------------------------------------

def square_wave_prices(price_low: float, price_high: float, price_high_start: int,
                       price_high_end: int) -> np.ndarray:
    """Day/night style tariff: ``price_high`` inside [start, end), ``price_low`` elsewhere."""
    if not (0 <= price_high_start < price_high_end <= HOURS):
        raise ConfigError(f"need 0 <= price_high_start < price_high_end <= {HOURS}, "
                          f"got {price_high_start} and {price_high_end}")
    if not price_low < price_high:
        raise ConfigError(f"price_low {price_low} must be below price_high {price_high}")
    prices = np.full(HOURS, float(price_low))
    prices[price_high_start:price_high_end] = price_high
    return prices


def _bell(hours: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((hours - center) / width) ** 2)


def generate_synthetic_days(n_days: int, prices: np.ndarray, rng: np.random.Generator,
                            pv_enabled: bool) -> list[DayProfile]:
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

    def normalize(self, hour, price, demand, pv, horizon: int) -> np.ndarray:
        """(hour, soc, price, demand, pv), each clipped to [0, 1], with the SoC
        column left at 0: ``HomeEnv`` fills it from the stored energy.

        The result has the broadcast shape of the inputs plus a trailing axis
        of one entry per feature: (n,) price, demand and pv columns give (n, 5).
        """
        out = np.zeros(np.broadcast(hour, price, demand, pv).shape + (len(FEATURE_NAMES),))
        out[..., 0] = hour / (horizon - 1)
        for col, (value, lo, hi) in enumerate(((price, self.price_min, self.price_max),
                                               (demand, self.demand_min, self.demand_max),
                                               (pv, self.pv_min, self.pv_max)), start=2):
            out[..., col] = 0.0 if hi <= lo else (value - lo) / (hi - lo)
        # envsim.clamp's two selections, made in place on the fresh table
        np.copyto(out, 0.0, where=0.0 > out)
        np.copyto(out, 1.0, where=1.0 < out)
        return out

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict, source: str = "normalization") -> "NormalizationStats":
        """The stats ``to_dict`` wrote; a missing, non-numeric or non-finite
        field, or a ``*_min`` above its ``*_max``, raises ``ConfigError`` naming
        the field and ``source``."""
        if not isinstance(d, dict):
            raise ConfigError(f"{source} is not an object")
        for f in fields(cls):
            if f.name not in d:
                raise ConfigError(f"{source} lacks {f.name!r}")
            if type(d[f.name]) not in (int, float):
                raise ConfigError(f"{source} field {f.name!r} is not a number: {d[f.name]!r}")
            if not math.isfinite(d[f.name]):
                raise ConfigError(f"{source} field {f.name!r} is not finite: {d[f.name]!r}")
        for feature in ("price", "demand", "pv"):
            lo, hi = f"{feature}_min", f"{feature}_max"
            if d[lo] > d[hi]:
                raise ConfigError(f"{source} field {lo!r} {d[lo]!r} is above {hi!r} {d[hi]!r}")
        return cls(**{f.name: float(d[f.name]) for f in fields(cls)})


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def _key(default, doc: str, bound: str | None = None, size: str | None = None):
    """Declare one config key: its default, a one-line doc, the interval such as
    ``"(0, 1]"`` that a number (or each value of a tuple) lies in, and the
    interval a tuple's length lies in."""
    return field(default=default, metadata={"doc": doc, "bound": bound, "size": size})


def _within(value, interval: str) -> bool:
    """Whether ``value`` lies in ``interval``; NaN lies in none."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    below = value < hi if interval[-1] == ")" else value <= hi
    return above and below


@dataclass
class RunConfig:
    """Every knob for a full train/distill/evaluate run, flat and defaulted.

    Each key is declared once: its type by the annotation, its default, doc and
    bounds by ``_key``. Construction checks every key against its bounds, then
    the rules that span keys, so a bad config fails on entry naming its key.
    """

    # environment
    battery_capacity_kwh: float = _key(10.0, "usable battery capacity (kWh)", "(0, inf)")
    battery_max_power_kw: float = _key(4.0, "battery power at a full signal (kW)", "(0, inf)")
    battery_efficiency: float = _key(0.9, "one-way charge and discharge efficiency", "(0, 1]")
    action_levels: tuple[float, ...] = _key((-1.0, -0.5, 0.0, 0.5, 1.0), "charge signal of each "
                                            "action, increasing, symmetric around 0", "[-1, 1]",
                                            f"[{len(ACTION_NAMES)}, {len(ACTION_NAMES)}]")
    injection_fraction: float = _key(0.25, "share of the price credited for injection", "[0, 1]")
    capacity_rate_eur_per_kw: float = _key(0.05, "capacity charge (EUR/kW); 0 disables", "[0, inf)")
    contracted_min_kw: float = _key(4.0, "least power the capacity charge bills (kW)", "[0, inf)")
    initial_soc: float = _key(0.5, "state of charge at the start of every day", "[0, 1]")
    # data
    price_low: float = _key(0.05, "synthetic off-peak price, below price_high", "(-inf, inf)")
    price_high: float = _key(0.25, "synthetic peak price (EUR/kWh)", "(-inf, inf)")
    price_high_start: int = _key(8, "first synthetic peak hour", f"[0, {HOURS - 1}]")
    price_high_end: int = _key(20, "hour the peak ends, after price_high_start", f"[1, {HOURS}]")
    profile_path: str = _key("", "real-data CSV for train-teacher and evaluate; empty reads "
                                 "profiles.csv in the output directory")
    days: int = _key(16, "synthetic days gen-data writes", "[1, inf)")
    pv_enabled: bool = _key(True, "synthetic PV; false gives the reduced explainability scenario")
    data_seed: int = _key(7, "seed of the synthetic days", "[0, inf)")
    # teacher
    hidden_sizes: tuple[int, ...] = _key((64, 64), "teacher hidden widths", "[1, inf)", "[1, inf)")
    learning_rate: float = _key(0.001, "teacher Adam step size", "(0, inf)")
    batch_size: int = _key(1000, "DQN minibatch size, at most buffer_size", "[1, inf)")
    buffer_size: int = _key(5000, "replay capacity", "[1, inf)")
    target_blend: float = _key(0.1, "soft target-network update weight", "(0, 1]")
    gamma: float = _key(0.99, "discount factor (unstated upstream)", "[0, 1]")
    episodes: int = _key(800, "teacher training episodes (days)", "[1, inf)")
    epsilon_start: float = _key(1.0, "exploration rate at the first step", "[0, 1]")
    epsilon_end: float = _key(0.05, "exploration rate once decayed", "[0, 1]")
    epsilon_decay_fraction: float = _key(0.8, "share of the steps epsilon decays over", "(0, 1]")
    teacher_seed: int = _key(0, "teacher training seed", "[0, inf)")
    # student
    student_depth: int = _key(2, "student tree depth, 2 or 3", "[2, 3]")
    temperature: float = _key(0.03, "distillation temperature (sharp teacher targets)", "(0, inf)")
    student_epochs: int = _key(400, "distillation epochs", "[1, inf)")
    student_batch_size: int = _key(64, "distillation minibatch size", "[1, inf)")
    student_learning_rate: float = _key(0.001, "student Adam step size", "(0, inf)")
    feature_sparsity: float = _key(0.03, "L1 pull to one feature per node; 0 disables", "[0, inf)")
    seeds: tuple[int, ...] = _key((0, 1, 2, 3, 4), "distinct student seeds", "[0, inf)", "[1, inf)")
    # evaluation
    heatmap_grid: int = _key(41, "heatmap points per axis", "[1, inf)")
    heatmap_fixed_hour: int = _key(12, "hour the heatmaps hold fixed", f"[0, {HOURS - 1}]")
    heatmap_fixed_pv: float = _key(0.0, "normalized PV the heatmaps hold fixed", "[0, 1]")

    def __post_init__(self):
        for f in fields(self):
            value, bound, size = getattr(self, f.name), f.metadata["bound"], f.metadata["size"]
            if size and not _within(len(value), size):
                raise ConfigError(f"{f.name} needs a number of values in {size}, "
                                  f"got {len(value)} ({f.metadata['doc']})")
            if bound and not all(_within(v, bound) for v in (value if size else (value,))):
                raise ConfigError(f"{f.name} must lie in {bound}{' each' if size else ''}, "
                                  f"got {value!r} ({f.metadata['doc']})")
            if isinstance(value, str) and (value != value.strip() or len(value.splitlines()) > 1):
                raise ConfigError(f"{f.name} must be one line without surrounding blanks, "
                                  f"got {value!r}")
        if self.batch_size > self.buffer_size:
            raise ConfigError(f"batch_size {self.batch_size} exceeds buffer_size "
                              f"{self.buffer_size}: the teacher would never train")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        # the battery checks its action levels, and the synthetic tariff its prices
        self.battery()
        self.prices()

    def battery(self) -> BatteryParams:
        return BatteryParams(self.battery_capacity_kwh, self.battery_max_power_kw,
                             self.battery_efficiency, tuple(self.action_levels))

    def tariff(self) -> TariffParams:
        return TariffParams(self.injection_fraction, self.capacity_rate_eur_per_kw,
                            self.contracted_min_kw)

    def prices(self) -> np.ndarray:
        """The synthetic square-wave tariff of every generated day."""
        return square_wave_prices(self.price_low, self.price_high, self.price_high_start,
                                  self.price_high_end)

    @property
    def horizon_steps(self) -> int:
        """Steps per episode: a day is always ``HOURS`` hourly rows (not a key)."""
        return HOURS

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def to_text(self) -> str:
        """key=value snapshot that parse_config reads back identically."""
        return "".join(f"{f.name}={_value_text(getattr(self, f.name))}\n" for f in fields(self))


_KEY_TYPES = get_type_hints(RunConfig)
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _value_text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_value_text(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def _parse_value(kind, raw: str):
    """``raw`` as a value of the annotated type ``kind``."""
    if get_origin(kind) is tuple:
        return tuple(_parse_value(get_args(kind)[0], x) for x in raw.split(",") if x.strip())
    if kind is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    return kind(raw)


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value lines ('#' comments allowed) into a RunConfig."""
    values: dict = {}
    seen_at: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_TYPES:
            valid = ", ".join(sorted(_KEY_TYPES))
            raise ConfigError(f"config line {lineno}: unknown key {key!r}; valid keys: {valid}")
        if key in seen_at:
            raise ConfigError(f"config line {lineno}: key {key!r} repeats line {seen_at[key]}")
        seen_at[key] = lineno
        try:
            values[key] = _parse_value(_KEY_TYPES[key], raw)
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
    """The synthetic day set the config describes."""
    rng = np.random.default_rng(config.data_seed)
    return generate_synthetic_days(config.days, config.prices(), rng, pv_enabled=config.pv_enabled)
