import math
import os
from dataclasses import fields
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepolicy.dataio import (
    PROFILE_HEADER,
    NormalizationStats,
    RunConfig,
    build_profiles,
    csv_text,
    generate_synthetic_days,
    load_config,
    load_profiles,
    parse_config,
    parse_profiles,
    save_profiles,
    square_wave_prices,
    write_text,
)
from treepolicy.envsim import clamp
from treepolicy.errors import ConfigError, ProfileError


def make_csv(days=1, rows_per_day=24):
    lines = ["hour,price,demand,pv"]
    for d in range(days):
        for h in range(rows_per_day):
            lines.append(f"{h},{0.1 + 0.01 * d},{1.0 + h * 0.1},{0.5}")
    return ("\n".join(lines) + "\n").encode()


class TestProfileParsing:
    def test_single_well_formed_day(self):
        days = parse_profiles(make_csv())
        assert len(days) == 1
        assert days[0].label == "day000"
        assert days[0].demand_kw[3] == pytest.approx(1.3)

    def test_two_days_in_file_order(self):
        days = parse_profiles(make_csv(days=2))
        assert len(days) == 2
        assert days[0].prices_eur_per_kwh[0] == pytest.approx(0.10)
        assert days[1].prices_eur_per_kwh[0] == pytest.approx(0.11)

    def test_short_day_names_the_day(self):
        with pytest.raises(ProfileError, match="day000.*23 of 24"):
            parse_profiles(make_csv(rows_per_day=23))

    def test_wrong_column_count_names_line(self):
        text = b"hour,price,demand,pv\n0,1,2\n"
        with pytest.raises(ProfileError, match="line 2"):
            parse_profiles(text)

    def test_unparsable_row_names_line(self):
        text = b"hour,price,demand,pv\n0,abc,2,3\n"
        with pytest.raises(ProfileError, match="line 2"):
            parse_profiles(text)

    def test_hour_must_cycle(self):
        text = b"hour,price,demand,pv\n5,0.1,1,0\n"
        with pytest.raises(ProfileError, match="cycle"):
            parse_profiles(text)

    def test_negative_demand_rejected(self):
        text = b"hour,price,demand,pv\n0,0.1,-1,0\n"
        with pytest.raises(ProfileError, match="non-negative"):
            parse_profiles(text)

    @pytest.mark.parametrize("row", ["1,nan,1.0,0.5", "1,0.1,inf,0.5", "1,0.1,1.0,nan",
                                     "1,-inf,1.0,0.5"])
    def test_non_finite_value_names_line(self, row):
        # a nan price would otherwise poison every mean downstream
        text = f"hour,price,demand,pv\n0,0.1,1.0,0.5\n{row}\n".encode()
        with pytest.raises(ProfileError, match="line 3: .*must be finite"):
            parse_profiles(text)

    def test_missing_header_rejected(self):
        with pytest.raises(ProfileError, match="header"):
            parse_profiles(b"a,b,c,d\n0,1,2,3\n")

    def test_file_without_days_rejected(self):
        # every consumer of the day list (env, rollouts, the oracle) needs one day
        with pytest.raises(ProfileError, match="line 1: file contains no data rows"):
            parse_profiles(b"hour,price,demand,pv\n\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProfileError, match="cannot read"):
            load_profiles(str(tmp_path / "nope.csv"))

    def test_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        days = generate_synthetic_days(3, square_wave_prices(0.05, 0.25, 8, 20), rng,
                                       pv_enabled=True)
        path = str(tmp_path / "profiles.csv")
        save_profiles(days, path)
        back = load_profiles(path)
        assert len(back) == len(days)
        for a, b in zip(days, back):
            np.testing.assert_array_equal(a.prices_eur_per_kwh, b.prices_eur_per_kwh)
            np.testing.assert_array_equal(a.demand_kw, b.demand_kw)
            np.testing.assert_array_equal(a.pv_kw, b.pv_kw)

    def test_fuzz_never_panics(self):
        rng = np.random.default_rng(1234)
        header = b"hour,price,demand,pv\n"
        for i in range(300):
            blob = bytes(rng.integers(0, 256, size=rng.integers(0, 400)))
            if i % 3 == 0:
                blob = header + blob
            try:
                parse_profiles(blob)
            except ProfileError:
                pass


class TestSquareWave:
    def test_default_window_counts(self):
        prices = square_wave_prices(0.05, 0.25, 8, 20)
        assert int(np.sum(prices == 0.25)) == 12
        assert int(np.sum(prices == 0.05)) == 12

    def test_degenerate_full_window(self):
        prices = square_wave_prices(0.05, 0.25, 0, 24)
        assert np.all(prices == 0.25)

    def test_equal_prices_rejected(self):
        with pytest.raises(ConfigError):
            square_wave_prices(0.25, 0.25, 8, 20)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigError):
            square_wave_prices(0.05, 0.25, 20, 8)


class TestNormalization:
    def stats(self):
        return NormalizationStats(0.05, 0.25, 0.0, 4.0, 0.0, 3.0)

    def test_lower_corner_all_zero(self):
        v = self.stats().normalize(0, 0.05, 0.0, 0.0, 24)
        np.testing.assert_array_equal(v, np.zeros(5))

    def test_upper_corner_all_one(self):
        v = self.stats().normalize(23, 0.25, 4.0, 3.0, 24)
        # every column but the SoC, which HomeEnv fills from the stored energy
        np.testing.assert_array_equal(v, [1.0, 0.0, 1.0, 1.0, 1.0])

    def test_price_midpoint_lands_in_slot(self):
        v = self.stats().normalize(0, 0.15, 0.0, 0.0, 24)
        assert v[2] == pytest.approx(0.5)

    def test_out_of_range_clipped(self):
        v = self.stats().normalize(0, 0.50, 9.0, 0.0, 24)
        assert v[2] == 1.0 and v[3] == 1.0

    def test_degenerate_feature_maps_to_zero(self):
        s = NormalizationStats(0.1, 0.1, 0.0, 1.0, 0.0, 0.0)
        v = s.normalize(0, 0.1, 0.5, 0.0, 24)
        assert v[2] == 0.0 and v[4] == 0.0

    def test_clamp_in_place_matches_clamp(self):
        # price has a zero lower bound, so -0.0 stays -0.0; demand's range is degenerate
        s = NormalizationStats(0.0, 0.25, 2.0, 2.0, 0.0, 3.0)
        hour = np.array([-3, 0, 11, 23, 30, 5, 7, 9])
        price = np.array([-0.1, -0.0, 0.0, 0.25, 0.5, 0.1, 0.2, np.nan])
        demand = np.array([0.0, 1.0, 2.0, 3.0, 9.0, -1.0, 2.0, 2.0])
        pv = np.array([-1.0, 0.0, 3.0, 4.5, 1.5, -0.0, 0.0, 3.0])
        raw = np.stack([hour / 23, np.zeros(len(hour)), (price - 0.0) / 0.25,
                        np.zeros(len(hour)), (pv - 0.0) / 3.0], axis=-1)
        got = s.normalize(hour, price, demand, pv, 24)
        assert got.tobytes() == clamp(raw, 0.0, 1.0).tobytes()
        assert np.signbit(got[1, 2])

    def test_monotone_in_every_raw_field(self):
        s = self.stats()
        rng = np.random.default_rng(3)
        for _ in range(200):
            lo = [rng.integers(0, 23), rng.uniform(0.05, 0.24), rng.uniform(0, 3.9),
                  rng.uniform(0, 2.9)]
            hi = [lo[0] + 1, lo[1] + rng.uniform(0, 0.01), lo[2] + rng.uniform(0, 0.1),
                  lo[3] + rng.uniform(0, 0.1)]
            a = s.normalize(*lo, 24)
            b = s.normalize(*hi, 24)
            assert np.all(b >= a - 1e-12)

    def test_dict_round_trip(self):
        s = self.stats()
        assert NormalizationStats.from_dict(s.to_dict()) == s


class TestSyntheticGenerator:
    def test_shapes_and_positivity(self):
        rng = np.random.default_rng(7)
        days = generate_synthetic_days(5, square_wave_prices(0.05, 0.25, 8, 20), rng,
                                       pv_enabled=True)
        assert len(days) == 5
        for d in days:
            assert len(d.demand_kw) == 24
            assert np.all(d.demand_kw >= 0) and np.all(d.pv_kw >= 0)
            assert d.pv_kw.max() > 0.5          # midday bell present
            assert d.pv_kw[0] == 0.0            # nothing at night

    def test_pv_disabled(self):
        rng = np.random.default_rng(7)
        days = generate_synthetic_days(2, square_wave_prices(0.05, 0.25, 8, 20), rng,
                                       pv_enabled=False)
        for d in days:
            assert np.all(d.pv_kw == 0.0)

    def test_seeded_determinism(self):
        a = build_profiles(RunConfig(days=3))
        b = build_profiles(RunConfig(days=3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.demand_kw, y.demand_kw)


class TestRunConfig:
    def test_empty_config_is_valid(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nepisodes=12\n")
        assert cfg.episodes == 12

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="valid keys.*battery_capacity_kwh"):
            parse_config("nonsense=1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("episodes=abc\n")

    def test_repeated_key_names_both_lines(self):
        # a later line does not silently override an earlier one
        with pytest.raises(ConfigError, match="line 3: key 'episodes' repeats line 1"):
            parse_config("episodes=10\n# more\nepisodes=20\n")

    def test_text_round_trip(self):
        cfg = RunConfig(episodes=123, seeds=(5, 6), price_low=0.01, pv_enabled=False)
        again = parse_config(cfg.to_text())
        assert again == cfg

    def test_tuple_and_bool_parsing(self):
        cfg = parse_config("seeds=7,8,9\npv_enabled=false\naction_levels=-1,-0.5,0,0.5,1\n")
        assert cfg.seeds == (7, 8, 9)
        assert cfg.pv_enabled is False

    def test_depth_guard(self):
        with pytest.raises(ConfigError):
            RunConfig(student_depth=4)

    def test_temperature_guard(self):
        with pytest.raises(ConfigError):
            RunConfig(temperature=0.0)

    def test_removed_price_mode_key_rejected(self):
        # profile_path alone selects real data; the old mode switch is gone
        with pytest.raises(ConfigError, match="line 1: unknown key 'price_mode'"):
            parse_config("price_mode=square\n")

    @pytest.mark.parametrize("key,value", [
        ("initial_soc", 1.5), ("initial_soc", -0.1), ("initial_soc", float("nan")),
        ("heatmap_grid", 0), ("student_batch_size", 0), ("action_levels", (-1.0, 0.0, 1.0)),
        ("episodes", 0), ("days", 0), ("gamma", 1.5), ("learning_rate", -1.0),
        ("hidden_sizes", ()), ("batch_size", 0), ("buffer_size", 0), ("target_blend", 2.0),
        ("epsilon_start", 2.0), ("epsilon_end", -1.0), ("epsilon_decay_fraction", 0.0),
        ("student_epochs", 0), ("student_learning_rate", -1.0), ("feature_sparsity", -1.0),
        ("heatmap_fixed_hour", 99), ("heatmap_fixed_pv", 5.0), ("injection_fraction", 2.0),
        ("contracted_min_kw", -5.0), ("seeds", (1, 1)), ("buffer_size", 100),
        ("battery_efficiency", 0.0), ("battery_capacity_kwh", -1.0), ("battery_max_power_kw", 0.0),
        ("capacity_rate_eur_per_kw", -1.0), ("price_low", 0.3), ("price_high_start", 20),
        ("action_levels", (-1.0, -0.5, 0.0, 1.0, 0.5)), ("profile_path", "data.csv\n")])
    def test_invalid_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("value", ["12", "24"])
    def test_removed_horizon_key_rejected(self, value):
        # a day is always 24 hourly rows, so the horizon is not a knob
        with pytest.raises(ConfigError, match="line 1: unknown key 'horizon_steps'"):
            parse_config(f"horizon_steps={value}\n")

    @pytest.mark.parametrize("value", ["1.0", "0.5"])
    def test_removed_timestep_key_rejected(self, value):
        # one profile row is one hour, so the step length is not a knob
        with pytest.raises(ConfigError, match="line 1: unknown key 'timestep_hours'"):
            parse_config(f"timestep_hours={value}\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "none.cfg"))


def test_dump_profiles_uses_full_precision(tmp_path):
    rng = np.random.default_rng(0)
    # 12 days: 289 lines, more than one of the formatter's 256-line blocks
    days = generate_synthetic_days(12, square_wave_prices(0.05, 0.25, 8, 20), rng,
                                   pv_enabled=True)
    path = tmp_path / "profiles.csv"
    save_profiles(days, str(path))
    # the per-value writer the table formatter replaced
    want = PROFILE_HEADER + "\n" + "".join(
        f"{h},{float(day.prices_eur_per_kwh[h])!r},{float(day.demand_kw[h])!r},"
        f"{float(day.pv_kw[h])!r}\n" for day in days for h in range(24))
    assert path.read_bytes() == want.encode()
    back = load_profiles(str(path))
    np.testing.assert_array_equal(back[11].demand_kw, days[11].demand_kw)
    np.testing.assert_array_equal(back[11].pv_kw, days[11].pv_kw)


def test_write_text_is_utf8_and_keeps_line_ends(tmp_path):
    # the writer of every text artifact: no locale encoding, no newline translation
    path = tmp_path / "t.txt"
    text = "price \u20ac/kWh\n\u00e9t\u00e9\r\nlast"
    write_text(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")


class TestCsvText:
    def test_header_only_table(self):
        assert csv_text(("step", "loss"), []) == "step,loss\n"

    def test_signed_zero_tiny_floats_and_ints(self):
        rows = [(-0.0, 1e-300, 7), (0.1, -5e-324, -12)]
        assert csv_text(("a", "b", "c"), rows) == "a,b,c\n-0.0,1e-300,7\n0.1,-5e-324,-12\n"

    def test_string_cells_are_not_quoted(self):
        rows = [["day000", 'say "hi"'], ["a b", ""]]
        assert (csv_text(["soc\\price", "note"], rows)
                == 'soc\\price,note\nday000,say "hi"\na b,\n')

    def test_rows_may_be_any_iterable(self):
        assert (csv_text(("step", "loss"), enumerate([0.5, 1 / 3]))
                == "step,loss\n0,0.5\n1,0.3333333333333333\n")

    @given(st.lists(st.one_of(st.floats(), st.integers(), st.booleans()), max_size=20))
    def test_numbers_are_written_as_their_repr(self, values):
        assert csv_text(["v"], [[v] for v in values]) == "v\n" + "".join(
            f"{v!r}\n" for v in values)


# ---------------------------------------------------------------------------
# The config schema: strategies read each key's type and bounds from RunConfig
# ---------------------------------------------------------------------------

KEYS = {f.name: f for f in fields(RunConfig)}
KEY_TYPES = get_type_hints(RunConfig)
BOUNDED = sorted(name for name, f in KEYS.items() if f.metadata["bound"])
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def interval(text):
    """(lo, hi, lo_open, hi_open) of an interval such as "(0, 1]"."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    return lo, hi, text[0] == "(", text[-1] == ")"


def inside(kind, bound):
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.text().filter(lambda t: t == t.strip() and len(t.splitlines()) <= 1)
    lo, hi, lo_open, hi_open = interval(bound)
    if kind is int:
        return st.integers(None if math.isinf(lo) else int(lo) + lo_open,
                           None if math.isinf(hi) else int(hi) - hi_open)
    return st.floats(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi,
                     exclude_min=lo_open and not math.isinf(lo),
                     exclude_max=hi_open and not math.isinf(hi),
                     allow_nan=False, allow_infinity=False)


def outside(kind, bound):
    lo, hi, lo_open, hi_open = interval(bound)
    if kind is int:
        sides = []
        if not math.isinf(lo):
            sides.append(st.integers(max_value=int(lo) - (not lo_open)))
        if not math.isinf(hi):
            sides.append(st.integers(min_value=int(hi) + (not hi_open)))
        return st.one_of(sides)
    below = st.just(-math.inf) if math.isinf(lo) else st.floats(max_value=lo,
                                                                 exclude_max=not lo_open)
    above = st.just(math.inf) if math.isinf(hi) else st.floats(min_value=hi,
                                                                exclude_min=not hi_open)
    return st.one_of(st.just(math.nan), below, above)


def key_values(name):
    meta, kind = KEYS[name].metadata, KEY_TYPES[name]
    if get_origin(kind) is not tuple:
        return inside(kind, meta["bound"])
    lo, hi, _, _ = interval(meta["size"])
    return st.lists(inside(get_args(kind)[0], meta["bound"]), min_size=int(lo),
                    max_size=int(min(hi, 6)), unique=name == "seeds").map(tuple)


@st.composite
def valid_configs(draw):
    """Every key inside its bounds, with the rules that span keys met."""
    values = {name: draw(key_values(name)) for name in KEYS}
    for low, high in (("batch_size", "buffer_size"), ("price_low", "price_high"),
                      ("price_high_start", "price_high_end")):
        values[low], values[high] = sorted((values[low], values[high]))
        if values[low] == values[high]:
            values[high] = draw(key_values(high).filter(lambda v: v > values[low]))
    a, b = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2,
                                max_size=2, unique=True)))
    values["action_levels"] = (-b, -a, 0.0, a, b)
    return values


@st.composite
def one_key_outside(draw):
    """A valid config with one key's value, or one value of a tuple key, out of bounds."""
    values = draw(valid_configs())
    name = draw(st.sampled_from(BOUNDED))
    meta, kind = KEYS[name].metadata, KEY_TYPES[name]
    if get_origin(kind) is not tuple:
        values[name] = draw(outside(kind, meta["bound"]))
        return name, values
    elem = get_args(kind)[0]
    lo, hi, _, _ = interval(meta["size"])
    wrong_sizes = list(range(int(lo))) + ([] if math.isinf(hi) else [int(hi) + 1, int(hi) + 2])
    if draw(st.booleans()):
        n = draw(st.sampled_from(wrong_sizes))
        values[name] = tuple(draw(st.lists(inside(elem, meta["bound"]), min_size=n,
                                           max_size=n)))
    else:
        items = list(values[name])
        items[draw(st.integers(0, len(items) - 1))] = draw(outside(elem, meta["bound"]))
        values[name] = tuple(items)
    return name, values


class TestConfigSchema:
    @PROPERTY
    @given(valid_configs())
    def test_inside_bounds_round_trips(self, values):
        cfg = RunConfig(**values)
        assert parse_config(cfg.to_text()) == cfg

    @PROPERTY
    @given(one_key_outside())
    def test_outside_one_bound_names_key(self, case):
        name, values = case
        with pytest.raises(ConfigError) as excinfo:
            RunConfig(**values)
        assert str(excinfo.value).split()[0] == name

    def test_every_key_is_bounded_or_free_text(self):
        free = {name for name in KEYS if name not in BOUNDED}
        assert {KEY_TYPES[name] for name in free} <= {bool, str}

    def test_readme_lists_every_key(self):
        defaults = dict(line.split("=", 1) for line in RunConfig().to_text().splitlines())
        rows = ["| key | default | bound | meaning |", "| --- | --- | --- | --- |"]
        for name, f in KEYS.items():
            bound, size = f.metadata["bound"], f.metadata["size"]
            if size:
                bound = f"count in {size}, each in {bound}"
            default = f"`{defaults[name]}`" if defaults[name] else "(empty)"
            rows.append(f"| `{name}` | {default} | {bound or 'any'} | {f.metadata['doc']} |")
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            assert "\n".join(rows) in fh.read()
