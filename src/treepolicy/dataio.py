"""Profile ingestion, the CSV formatter, synthetic fixtures, normalization, and
run configuration.

Profile files are plain CSV with header ``hour,price,demand,pv``, one row per
hour and days concatenated back to back; the hour column must cycle 0..23.
A day set, parsed or synthetic, is one ``DaySet``: read-only (days, hours)
arrays of price, demand and PV. Only this module builds one; the env, the
oracle and the writers read its arrays as they are.
Every CSV table the pipeline writes, profiles included, goes through ``csv_text``.
Run configuration is a flat ``key=value`` text file where every key has a
default, so an empty file is a valid config.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .envsim import ACTION_NAMES, FEATURE_NAMES, BatteryParams, TariffParams
from .errors import ConfigError, ProfileError

HOURS = 24


class DaySet:
    """Days of hourly rows as one read-only table: ``prices_eur_per_kwh``,
    ``demand_kw`` and ``pv_kw`` are (days, hours) float64 arrays whose row ``d``
    is the day ``labels[d]``, the rows ``parse_profiles`` and the synthetic
    generator check or build. ``len``, an integer index and a slice give views
    of the table, and iterating yields one-day sets, so one day is a set of one
    row. An array given that is not read-only is copied, so no caller can change
    a set after the fact."""

    __slots__ = ("prices_eur_per_kwh", "demand_kw", "pv_kw", "labels")

    def __init__(self, prices_eur_per_kwh, demand_kw, pv_kw, labels):
        arrays = [_read_only(a) for a in (prices_eur_per_kwh, demand_kw, pv_kw)]
        labels = tuple(labels)
        shape = arrays[0].shape
        if len(shape) != 2 or any(a.shape != shape for a in arrays) or len(labels) != shape[0]:
            raise ConfigError(f"a day set needs three (days, hours) arrays of one shape and a "
                              f"label per day, got shapes {[a.shape for a in arrays]} and "
                              f"{len(labels)} labels")
        self.prices_eur_per_kwh, self.demand_kw, self.pv_kw = arrays
        self.labels = labels

    @property
    def hours(self) -> int:
        """Rows per day: the steps of one episode."""
        return self.prices_eur_per_kwh.shape[1]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index) -> "DaySet":
        """Day ``index`` as a one-day set, or the days of a slice; views either way."""
        if not isinstance(index, slice):
            day = range(len(self))[index]
            index = slice(day, day + 1)
        return DaySet(self.prices_eur_per_kwh[index], self.demand_kw[index], self.pv_kw[index],
                      self.labels[index])

    def __iter__(self):
        return (self[d] for d in range(len(self)))


def _read_only(values) -> np.ndarray:
    """``values`` as a float64 array that cannot be written: itself if it is one
    already, else a copy."""
    array = np.asarray(values, dtype=float)
    if array.flags.writeable:
        array = array.copy()
        array.setflags(write=False)
    return array


def _day_labels(n_days: int) -> tuple[str, ...]:
    return tuple(f"day{d:03d}" for d in range(n_days))


# ---------------------------------------------------------------------------
# CSV profiles
# ---------------------------------------------------------------------------

PROFILE_HEADER = "hour,price,demand,pv"
# Lines per pass of ``parse_profiles`` over its columns: a pass holds the cells
# of its lines alone, so parsing a year peaks below what one tuple per row took.
PARSE_CHUNK_LINES = 256
_CELL_KINDS = (int, float, float, float)    # hour, price, demand, pv


def load_profiles(path: str) -> DaySet:
    """Parse a concatenated-days profile CSV into a day set."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ProfileError(f"cannot read profile file {path!r}: {exc}") from None
    return parse_profiles(raw, origin=path)


def parse_profiles(raw: bytes, origin: str = "<data>") -> DaySet:
    """The day set of a profile file's bytes, UTF-8 with or without a byte order mark.

    Blank lines are skipped. The data rows are read a column at a time, the
    hour with ``int`` and the values with ``float``, into one table. The first
    bad row raises ``ProfileError`` naming its line, checked in this order: four
    columns, every cell parses (a ``_`` digit separator does not), the hour
    cycles 0..23, the values are finite, demand and PV are non-negative. Then a
    short last day, or no row at all, raises too.
    """
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ProfileError(f"{origin} is not utf-8 text: {exc}") from None
    lines = text.splitlines()
    del text        # the lines hold their own copies
    if not lines or lines[0].strip() != PROFILE_HEADER:
        raise ProfileError(f"expected header '{PROFILE_HEADER}'", line=1)

    # price, demand and pv of each data row; blank lines leave the tail unused
    table = np.empty((3, len(lines) - 1))
    rows_done = 0
    for lo in range(1, len(lines), PARSE_CHUNK_LINES):
        rows = list(filter(str.strip, lines[lo:lo + PARSE_CHUNK_LINES]))
        fault = _read_columns(rows, rows_done, table[:, rows_done:rows_done + len(rows)])
        if fault is not None:
            row, message = fault
            nonblank = itertools.compress(itertools.count(lo + 1), map(str.strip, lines[lo:]))
            raise ProfileError(message, line=next(itertools.islice(nonblank, row, None)))
        rows_done += len(rows)
    n_days, short = divmod(rows_done, HOURS)
    if short:
        raise ProfileError(f"day {n_days} ('day{n_days:03d}') is short: {short} of {HOURS} rows",
                           line=len(lines))
    if not n_days:
        raise ProfileError("file contains no data rows", line=1)
    table.setflags(write=False)
    return DaySet(*(column[:rows_done].reshape(n_days, HOURS) for column in table),
                  labels=_day_labels(n_days))


def _leading_values(kind, cells) -> list:
    """``kind`` of each cell, up to the first one it refuses."""
    values = []
    try:
        values.extend(map(kind, cells))
    except ValueError:
        pass        # extend keeps the values converted before the refusal
    return values


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of ``mask``, or its length if there is none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _read_columns(rows: list[str], first_row: int, out: np.ndarray):
    """Read the non-blank data lines ``rows``, the first of them data row
    ``first_row``, into the (3, len(rows)) price, demand and pv columns ``out``.

    Returns None, or the index of the first bad row and its message. A row is
    checked further only where every row before it passed each check, so the
    row reported and its message are those of a check run row by row.
    """
    n = len(rows)
    commas = np.fromiter(map(str.count, rows, itertools.repeat(",")), np.intp, n)
    four = _first(commas != 3)              # rows before it have four columns
    text = ",".join(rows[:four])
    cells = text.split(",") if four else []
    columns = [_leading_values(kind, cells[j::4]) for j, kind in enumerate(_CELL_KINDS)]
    # int and float read "1_0" as 10; no profile means that
    separated = _first(np.fromiter(map(operator.contains, rows[:four], itertools.repeat("_")),
                                   bool, four)) if "_" in text else four
    parsed = min(four, separated, *map(len, columns))
    hours = columns[0][:parsed]
    expected = itertools.islice(itertools.cycle(range(HOURS)), first_row % HOURS, None)
    out[:, :parsed] = [column[:parsed] for column in columns[1:]]
    checks = (
        (np.fromiter(map(operator.ne, hours, expected), bool, parsed),
         lambda k: f"hour column must cycle 0..{HOURS - 1}; got {hours[k]} where "
                   f"{(first_row + k) % HOURS} expected"),
        (~np.isfinite(out[:, :parsed]).all(axis=0),
         lambda k: f"price, demand and pv must be finite, got {rows[k]!r}"),
        ((out[1:, :parsed] < 0).any(axis=0), lambda k: "demand and pv must be non-negative"),
    )
    bad = min(parsed, *(_first(mask) for mask, _ in checks))
    if bad < parsed:
        return bad, next(message(bad) for mask, message in checks if mask[bad])
    if parsed < n:
        if parsed == four:
            return parsed, f"expected 4 columns, got {commas[parsed] + 1}"
        return parsed, f"unparsable row {rows[parsed]!r}"
    return None


def save_profiles(days: DaySet, path: str) -> None:
    rows = ((row % days.hours, *values) for row, values in enumerate(zip(
        days.prices_eur_per_kwh.ravel().tolist(), days.demand_kw.ravel().tolist(),
        days.pv_kw.ravel().tolist())))
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
                            pv_enabled: bool) -> DaySet:
    """Household fixture: morning/evening demand peaks and a midday PV bell.

    Day-to-day variation comes from seeded amplitude jitter so multiple days
    are distinct but reproducible. Each day draws its morning and evening
    amplitudes, its hourly base load, then its PV amplitude, in that order.
    """
    hours = np.arange(HOURS, dtype=float)
    morning, evening = _bell(hours, 7.5, 1.4), _bell(hours, 19.0, 2.2)
    sun = _bell(hours, 13.0, 2.4)
    demand, pv = np.zeros((n_days, HOURS)), np.zeros((n_days, HOURS))
    for day in range(n_days):
        morning_kw, evening_kw = rng.uniform(1.2, 1.8), rng.uniform(2.4, 3.2)
        base = 0.4 + rng.uniform(-0.05, 0.1, size=HOURS)
        demand[day] = np.maximum(base + morning_kw * morning + evening_kw * evening, 0.0)
        if pv_enabled:
            pv[day] = rng.uniform(1.2, 1.8) * sun
    pv[pv < 0.01] = 0.0
    return DaySet(np.tile(np.asarray(prices, dtype=float), (n_days, 1)), demand, pv,
                  _day_labels(n_days))


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
    def from_profiles(cls, days: DaySet) -> "NormalizationStats":
        prices, demand, pv = days.prices_eur_per_kwh, days.demand_kw, days.pv_kw
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
    The student depth is no key but a stage argument, one of ``pipeline.DEPTHS``.
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


def build_profiles(config: RunConfig) -> DaySet:
    """The synthetic day set the config describes."""
    rng = np.random.default_rng(config.data_seed)
    return generate_synthetic_days(config.days, config.prices(), rng, pv_enabled=config.pv_enabled)
