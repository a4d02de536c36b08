import math
import re

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqlab.errors import ConfigError, DataError
from pqlab.market_paths import (
    ConditionVector,
    DailySeries,
    GeneratorConfig,
    PathSlice,
    RateTable,
    annualized_volatility,
    load_rates_csv,
    load_series_csv,
    log_returns,
    parse_date,
    read_manifest,
    slice_dataset,
    synthesize_series,
    to_prices,
    write_manifest,
)


def make_path_slice(s0=100.0, log_returns=(0.01, 0.0, -0.02)):
    n = len(log_returns)
    cond = ConditionVector(sigma_hist=0.2, r=0.03, t_calendar=0.02,
                           t_trading=n / 252.0, n_trading=n)
    return PathSlice(s0=s0, log_returns=np.array(log_returns, dtype=float),
                     condition=cond,
                     window_calendar_days=7, start_date=np.datetime64("2020-01-02"))


def flat_rates(windows, start_date, rate=0.02):
    d = np.array([np.datetime64(start_date, "D")])
    return {w: RateTable(w, d, np.array([rate])) for w in windows}


class TestLogReturn:
    def test_identity(self):
        assert log_returns([100.0, 100.0]).tolist() == [0.0]

    def test_ten_percent_up(self):
        assert log_returns([100.0, 110.0])[0] == pytest.approx(0.0953102, abs=1e-7)

    def test_non_positive_price(self):
        with pytest.raises(DataError):
            log_returns([100.0, 0.0])
        with pytest.raises(DataError):
            log_returns([-1.0, 100.0])


class TestAnnualizedVolatility:
    def test_constant_returns(self):
        assert annualized_volatility(np.array([0.01, 0.01, 0.01])) == 0.0

    def test_alternating_returns(self):
        # sqrt(4e-4 / 3) * sqrt(252) = 0.0115470054 * 15.8745079 = 0.1833030
        vol = annualized_volatility(np.array([0.01, -0.01, 0.01, -0.01]))
        assert vol == pytest.approx(0.1833030, abs=1e-6)

    def test_single_return_rejected(self):
        with pytest.raises(DataError):
            annualized_volatility(np.array([0.01]))

    @given(st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=40), st.randoms())
    def test_permutation_invariant(self, rets, rnd):
        shuffled = list(rets)
        rnd.shuffle(shuffled)
        assert annualized_volatility(np.array(shuffled)) == pytest.approx(
            annualized_volatility(np.array(rets)), rel=1e-9, abs=1e-12
        )


class TestRoundTrip:
    @given(
        st.lists(st.floats(0.5, 500.0, allow_nan=False), min_size=2, max_size=64)
    )
    def test_prices_to_returns_and_back(self, closes):
        closes = np.asarray(closes)
        rets = log_returns(closes)
        rebuilt = to_prices(closes[0], rets)
        assert np.allclose(rebuilt, closes[1:], rtol=1e-12, atol=0.0)

    def test_to_prices_excludes_s0(self):
        out = to_prices(100.0, np.array([math.log(1.1)]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(110.0, rel=1e-12)


class TestSynthesize:
    def test_deterministic(self):
        cfg = GeneratorConfig(n_days=400)
        a = synthesize_series(cfg, seed=7)
        b = synthesize_series(cfg, seed=7)
        assert np.array_equal(a.closes, b.closes)
        assert np.array_equal(a.dates, b.dates)
        assert np.array_equal(a.is_trading_day, b.is_trading_day)

    def test_different_seed_differs(self):
        cfg = GeneratorConfig(n_days=400)
        a = synthesize_series(cfg, seed=7)
        b = synthesize_series(cfg, seed=8)
        assert not np.array_equal(a.closes, b.closes)

    def test_zero_noise_constant_series(self):
        cfg = GeneratorConfig(n_days=200, mu1=0.0, mu2=0.0, sigma1=0.0, sigma2=0.0)
        series = synthesize_series(cfg, seed=1)
        assert np.allclose(series.closes, cfg.s0)

    def test_volatility_clustering(self):
        cfg = GeneratorConfig(
            n_days=2520, mu1=0.0, mu2=0.0, sigma1=0.1, sigma2=0.5, p_switch=0.02
        )
        series = synthesize_series(cfg, seed=3)
        r2 = log_returns(series.trading_closes) ** 2
        x, y = r2[:-1], r2[1:]
        corr = np.corrcoef(x, y)[0, 1]
        assert corr > 0.0

    def test_weekends_not_trading(self):
        series = synthesize_series(GeneratorConfig(n_days=60), seed=1)
        weekday = (series.dates.view("int64") + 3) % 7
        assert not series.is_trading_day[weekday >= 5].any()

    @settings(deadline=None, max_examples=200)
    @given(n_days=st.integers(2, 800), seed=st.integers(0, 2**32 - 1),
           p_switch=st.sampled_from([0.0, 0.02, 0.5, 1.0]) | st.floats(0.0, 1.0),
           start=st.sampled_from(["2015-01-01", "2015-01-03", "2015-01-04", "2016-02-29"]))
    @example(n_days=30, seed=0, p_switch=1.0, start="2015-01-03")  # Saturday start
    @example(n_days=3, seed=1, p_switch=0.02, start="2015-01-03")  # under 2 trading days
    def test_equals_the_loop_oracle_byte_for_byte(self, n_days, seed, p_switch, start):
        cfg = GeneratorConfig(n_days=n_days, mu2=-0.3, p_switch=p_switch, start_date=start)
        try:
            ref = oracles.synthesize_series_reference(cfg, seed)
        except DataError:
            with pytest.raises(DataError):
                synthesize_series(cfg, seed)
            return
        got = synthesize_series(cfg, seed)
        assert got.closes.tobytes() == ref.closes.tobytes()
        assert got.dates.tobytes() == ref.dates.tobytes()
        assert got.is_trading_day.tobytes() == ref.is_trading_day.tobytes()

    def test_carry_forward_on_non_trading_days(self):
        series = synthesize_series(GeneratorConfig(n_days=60), seed=2)
        closes, trading = series.closes, series.is_trading_day
        for i in range(1, len(closes)):
            if not trading[i]:
                assert closes[i] == closes[i - 1]


@pytest.fixture(scope="module")
def series():
    return synthesize_series(GeneratorConfig(n_days=3 * 365), seed=11)


class TestSliceDataset:
    def test_split_partition_and_hygiene(self, series):
        split = series.dates[0] + np.timedelta64(2 * 365, "D")
        rates = flat_rates([30], str(series.dates[0]))
        out = slice_dataset(series, rates, [30], split)
        assert out.train and out.test
        for sl in out.train:
            last_used = sl.start_date + np.timedelta64(sl.window_calendar_days, "D")
            assert last_used < split
        for sl in out.test:
            assert sl.start_date >= split

    def test_price_reconstruction(self, series):
        split = series.dates[0] + np.timedelta64(2 * 365, "D")
        rates = flat_rates([30, 90], str(series.dates[0]))
        out = slice_dataset(series, rates, [30, 90], split)
        t_dates = series.trading_dates
        t_closes = series.trading_closes
        for sl in out.train[:40] + out.test[:40]:
            i0 = int(np.searchsorted(t_dates, sl.start_date))
            n = sl.condition.n_trading
            src = t_closes[i0 + 1 : i0 + 1 + n]
            rebuilt = to_prices(sl.s0, sl.log_returns)
            assert np.allclose(rebuilt, src, rtol=1e-12, atol=0.0)

    def test_condition_invariants(self, series):
        split = series.dates[0] + np.timedelta64(2 * 365, "D")
        rates = flat_rates([30, 90, 180, 365], str(series.dates[0]))
        out = slice_dataset(series, rates, [30, 90, 180, 365], split)
        for sl in out.train + out.test:
            c = sl.condition
            assert c.t_trading <= c.t_calendar + 1e-12
            assert c.sigma_hist >= 0.0
            assert c.n_trading == len(sl.log_returns) <= out.l_max
            assert c.t_calendar == sl.window_calendar_days / 365

    def test_sigma_hist_needs_sixty_prior_days(self, series):
        split = series.dates[0] + np.timedelta64(2 * 365, "D")
        rates = flat_rates([30], str(series.dates[0]))
        out = slice_dataset(series, rates, [30], split)
        assert out.skipped["insufficient_history"] >= 60
        first = min(sl.start_date for sl in out.train)
        t_dates = series.trading_dates
        assert int(np.searchsorted(t_dates, first)) >= 60

    def test_short_series_long_window(self):
        series = synthesize_series(GeneratorConfig(n_days=400), seed=5)
        rates = flat_rates([365], str(series.dates[0]))
        split = series.dates[0] + np.timedelta64(200, "D")
        out = slice_dataset(series, rates, [365], split)
        assert len(out.train) + len(out.test) <= 36
        assert out.skipped["window_past_series_end"] > 0

    def test_missing_tenor_is_error(self, series):
        split = series.dates[0] + np.timedelta64(2 * 365, "D")
        with pytest.raises(DataError):
            slice_dataset(series, {}, [30], split)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000), split_frac=st.floats(0.4, 0.8))
    def test_split_hygiene_property(self, seed, split_frac):
        series = synthesize_series(GeneratorConfig(n_days=700), seed=seed)
        split = series.dates[0] + np.timedelta64(int(700 * split_frac), "D")
        rates = flat_rates([30], str(series.dates[0]))
        out = slice_dataset(series, rates, [30], split)
        for sl in out.train:
            assert sl.start_date + np.timedelta64(30, "D") < split


SLICE_WINDOWS = (2, 3, 5, 7, 30, 60, 91)


def random_calendar_case(seed, n_days, density, n_rates):
    """A series whose days trade with probability ``density``, plus a
    random-walk rate table for every window a case may draw."""
    rng = np.random.default_rng(seed)
    dates = np.datetime64("2015-01-01") + np.arange(n_days)
    trading = rng.random(n_days) < density
    trading[:2] = True  # DailySeries needs two trading days
    steps = np.where(trading, rng.normal(0.0, 0.02, n_days), 0.0)
    series = DailySeries(dates, 100.0 * np.exp(np.cumsum(steps)), trading)
    rate_dates = dates[np.sort(rng.choice(n_days, n_rates, replace=False))]
    rate_dates[0] = dates[0]
    rates = {w: RateTable(w, rate_dates, rng.normal(0.02, 0.01, n_rates))
             for w in SLICE_WINDOWS}
    return series, rates


def slices_fingerprint(out):
    """Every byte of a SplitSlices: bits of each float, each array's bytes,
    the slice order, the skip counts and l_max."""
    def one(sl):
        c = sl.condition
        floats = (sl.s0, c.sigma_hist, c.r, c.t_calendar, c.t_trading)
        return (tuple(float(v).hex() for v in floats), sl.log_returns.dtype.str,
                sl.log_returns.tobytes(), c.n_trading, sl.window_calendar_days,
                str(sl.start_date))
    return ([one(sl) for sl in out.train], [one(sl) for sl in out.test],
            sorted(out.skipped.items()), out.l_max)


class TestSliceDatasetMatchesReference:
    """slice_dataset against the per-slice loop that re-takes every log."""

    @settings(deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), n_days=st.integers(60, 420),
           density=st.sampled_from([0.08, 0.2, 0.45, 9 / 14, 0.75, 1.0]),
           windows=st.lists(st.sampled_from(SLICE_WINDOWS), min_size=1, max_size=3),
           stride=st.integers(1, 3), split_frac=st.floats(0.0, 1.0),
           n_rates=st.integers(1, 5))
    def test_equal_byte_for_byte(self, seed, n_days, density, windows, stride,
                                 split_frac, n_rates):
        series, rates = random_calendar_case(seed, n_days, density, n_rates)
        split = series.dates[1 + int(split_frac * (n_days - 2))]
        got = slice_dataset(series, rates, windows, split, stride)
        want = oracles.slice_dataset_reference(series, rates, windows, split, stride)
        assert slices_fingerprint(got) == slices_fingerprint(want)

    def test_cases_reach_every_skip_reason(self):
        # the cases above keep slices and hit each skip reason, starts with
        # under 60 closes of history included
        reasons, kept = set(), 0
        for seed, density, windows in ((1, 0.08, (2, 3, 5)), (2, 1.0, (7, 30)),
                                       (3, 9 / 14, (30, 60, 91))):
            series, rates = random_calendar_case(seed, 400, density, 3)
            out = slice_dataset(series, rates, windows, series.dates[300])
            reasons |= set(out.skipped)
            kept += len(out.train) + len(out.test)
        assert kept and reasons == {"window_past_series_end", "straddles_split",
                                    "no_trading_days", "trading_density_too_high",
                                    "insufficient_history"}

    @pytest.mark.parametrize("windows, split", [((), 100), ((4,), 100), ((30,), 0),
                                                ((30,), "2015-02-30")])
    def test_errors_match(self, windows, split):
        series, rates = random_calendar_case(4, 200, 0.6, 2)
        if isinstance(split, int):
            split = series.dates[split]
        with pytest.raises((ConfigError, DataError)) as want:
            oracles.slice_dataset_reference(series, rates, windows, split)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            slice_dataset(series, rates, windows, split)


class TestRateTable:
    def test_forward_fill_picks_most_recent(self):
        dates = np.array(["2020-01-01", "2020-02-01"], dtype="datetime64[D]")
        table = RateTable(30, dates, np.array([0.02, 0.03]))
        assert table.rate_at(np.datetime64("2020-01-15")) == 0.02
        assert table.rate_at(np.datetime64("2020-02-01")) == 0.03
        assert table.rate_at(np.datetime64("2021-01-01")) == 0.03

    def test_before_first_rate_is_error(self):
        table = RateTable(
            30, np.array(["2020-06-01"], dtype="datetime64[D]"), np.array([0.02])
        )
        with pytest.raises(DataError):
            table.rate_at(np.datetime64("2020-01-01"))


class TestCsvIO:
    def test_series_round_trip(self, tmp_path):
        src = synthesize_series(GeneratorConfig(n_days=40), seed=9)
        p = tmp_path / "series.csv"
        with open(p, "w") as fh:
            fh.write("date,close,is_trading_day\n")
            for d, c, t in zip(src.dates, src.closes, src.is_trading_day):
                fh.write(f"{d},{float(c)!r},{int(t)}\n")
        loaded = load_series_csv(p)
        assert np.array_equal(loaded.dates, src.dates)
        assert np.array_equal(loaded.closes, src.closes)
        assert np.array_equal(loaded.is_trading_day, src.is_trading_day)

    def test_rates_round_trip(self, tmp_path):
        p = tmp_path / "rates.csv"
        with open(p, "w") as fh:
            fh.write("date,tenor_days,rate\n")
            fh.write("2020-01-01,30,0.02\n")
            fh.write("2020-01-01,90,0.025\n")
            fh.write("2020-03-01,30,0.021\n")
        tables = load_rates_csv(p)
        assert set(tables) == {30, 90}
        assert tables[30].rate_at(np.datetime64("2020-04-01")) == 0.021

    def test_bad_header_is_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,price\n2020-01-01,1.0\n")
        with pytest.raises(DataError):
            load_series_csv(p)
        with pytest.raises(DataError):
            load_rates_csv(p)

    def test_non_positive_close_is_error(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text(
            "date,close,is_trading_day\n2020-01-01,1.0,1\n"
            "2020-01-02,-1.0,1\n2020-01-03,1.0,1\n"
        )
        with pytest.raises(DataError):
            load_series_csv(p)


class TestCsvRejected:
    """Bad series and rates files end as DataError, never as a traceback."""

    LOADERS = {"series": (load_series_csv, b"date,close,is_trading_day\n"),
               "rates": (load_rates_csv, b"date,tenor_days,rate\n")}

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_non_utf8_file(self, tmp_path, kind):
        load, header = self.LOADERS[kind]
        p = tmp_path / "latin1.csv"
        p.write_bytes(header + "2020-01-01,caf\u00e9,1\n".encode("latin-1"))
        with pytest.raises(DataError, match="utf-8"):
            load(p)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_unreadable_path(self, tmp_path, kind):
        load, _ = self.LOADERS[kind]
        with pytest.raises(DataError):
            load(tmp_path)  # a directory
        with pytest.raises(DataError):
            load(tmp_path / "absent.csv")

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_header_only(self, tmp_path, kind):
        load, header = self.LOADERS[kind]
        p = tmp_path / "empty.csv"
        p.write_bytes(header)
        with pytest.raises(DataError, match="no data rows"):
            load(p)

    @pytest.mark.parametrize("flag", ["7", "-1", "2", "yes", ""])
    def test_trading_flag_must_be_zero_or_one(self, tmp_path, flag):
        p = tmp_path / "flags.csv"
        p.write_text("date,close,is_trading_day\n2020-01-01,1.0,1\n"
                     f"2020-01-02,1.0,{flag}\n2020-01-03,1.0,1\n")
        with pytest.raises(DataError, match="bad row"):
            load_series_csv(p)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @settings(deadline=None, max_examples=150)
    @given(blob=st.binary(max_size=300))
    def test_arbitrary_bytes_are_a_data_error(self, tmp_path_factory, kind, blob):
        load, _ = self.LOADERS[kind]
        p = tmp_path_factory.mktemp("fuzz") / "input.csv"
        p.write_bytes(blob)
        with pytest.raises(DataError):
            load(p)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @settings(deadline=None, max_examples=150)
    @given(rows=st.binary(max_size=300))
    def test_arbitrary_rows_load_or_are_a_data_error(self, tmp_path_factory, kind, rows):
        # past a valid header, the row parser sees the arbitrary bytes
        load, header = self.LOADERS[kind]
        p = tmp_path_factory.mktemp("fuzz") / "input.csv"
        p.write_bytes(header + rows)
        try:
            loaded = load(p)
        except DataError:
            return
        assert isinstance(loaded, DailySeries if kind == "series" else dict)


class TestManifest:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "manifest.txt"
        entries = {"split_date": "2024-01-01", "windows": "30,90", "n_train": "120"}
        write_manifest(p, entries)
        assert read_manifest(p) == entries


class TestDailySeriesValidation:
    def test_needs_two_trading_days(self):
        dates = np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]")
        with pytest.raises(DataError):
            DailySeries(dates, np.array([1.0, 1.0]), np.array([True, False]))

    def test_rejects_non_increasing_dates(self):
        dates = np.array(["2020-01-02", "2020-01-02"], dtype="datetime64[D]")
        with pytest.raises(DataError):
            DailySeries(dates, np.array([1.0, 1.0]), np.array([True, True]))

    def test_rejects_non_positive_close(self):
        dates = np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]")
        with pytest.raises(DataError):
            DailySeries(dates, np.array([1.0, 0.0]), np.array([True, True]))


class TestNonFiniteRejected:
    @pytest.mark.parametrize("key", ["s0", "mu1", "mu2", "sigma1", "sigma2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_generator_config(self, key, value):
        with pytest.raises(ConfigError):
            GeneratorConfig(n_days=400, **{key: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_condition_sigma_hist(self, value):
        with pytest.raises(DataError, match="sigma_hist"):
            ConditionVector(sigma_hist=value, r=0.03, t_calendar=0.1,
                            t_trading=0.05, n_trading=12)

    @pytest.mark.parametrize("key", ["r", "t_calendar", "t_trading"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_condition_fields(self, key, value):
        fields = dict(sigma_hist=0.2, r=0.03, t_calendar=0.1, t_trading=0.05,
                      n_trading=12)
        fields[key] = value
        with pytest.raises(DataError, match=f"^{key} must be finite"):
            ConditionVector(**fields)

    @pytest.mark.parametrize("s0", [math.nan, math.inf, 0.0, -1.0])
    def test_path_slice_s0(self, s0):
        with pytest.raises(DataError, match="s0 must be finite and positive"):
            make_path_slice(s0=s0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_path_slice_log_returns(self, value):
        with pytest.raises(DataError, match="log_returns must be finite"):
            make_path_slice(log_returns=[0.01, value, -0.02])

    @pytest.mark.parametrize("n_trading", [2, 4, 20])
    def test_path_slice_length_matches_condition(self, n_trading):
        good = make_path_slice()
        cond = ConditionVector(sigma_hist=0.2, r=0.03, t_calendar=0.1,
                               t_trading=n_trading / 252.0, n_trading=n_trading)
        with pytest.raises(DataError, match="3 returns.*n_trading = "):
            PathSlice(s0=good.s0, log_returns=good.log_returns,
                      condition=cond, window_calendar_days=7,
                      start_date=good.start_date)


class TestSliceStore:
    def build(self, series):
        split = series.dates[0] + np.timedelta64(2 * 365, "D")
        rates = flat_rates([30], str(series.dates[0]))
        return slice_dataset(series, rates, [30], split)

    def test_round_trip_exact(self, series, tmp_path):
        from pqlab.market_paths import load_slices, save_slices

        split = self.build(series)
        path = tmp_path / "slices.npz"
        save_slices(path, split)
        back = load_slices(path)
        assert back.l_max == split.l_max
        assert back.skipped == split.skipped
        for orig, copy in zip(split.train + split.test, back.train + back.test):
            assert copy.s0 == orig.s0
            assert np.array_equal(copy.log_returns, orig.log_returns)
            assert copy.condition == orig.condition
            assert copy.window_calendar_days == orig.window_calendar_days
            assert copy.start_date == orig.start_date
        assert len(back.train) == len(split.train)
        assert len(back.test) == len(split.test)

    def test_save_is_byte_deterministic(self, series, tmp_path):
        from pqlab.market_paths import save_slices

        split = self.build(series)
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_slices(a, split)
        save_slices(b, split)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_file_rejected(self, tmp_path):
        from pqlab.market_paths import load_slices

        path = tmp_path / "junk.npz"
        path.write_text("nope")
        with pytest.raises(DataError):
            load_slices(path)

    def test_wrong_version_rejected(self, series, tmp_path):
        from pqlab.market_paths import save_slices, load_slices

        split = self.build(series)
        path = tmp_path / "v0.npz"
        save_slices(path, split)
        data = dict(np.load(path))
        data["version"] = np.array("PQLAB-SLICES v0")
        np.savez(path, **data)
        with pytest.raises(DataError):
            load_slices(path)

    def test_missing_member_rejected(self, series, tmp_path):
        from pqlab.market_paths import save_slices, load_slices

        path = tmp_path / "partial.npz"
        save_slices(path, self.build(series))
        data = dict(np.load(path))
        del data["test_sigma"]
        np.savez(path, **data)
        with pytest.raises(DataError, match="test_sigma"):
            load_slices(path)

    def test_truncated_store_rejected(self, series, tmp_path):
        from pqlab.market_paths import save_slices, load_slices

        path = tmp_path / "cut.npz"
        save_slices(path, self.build(series))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError):
            load_slices(path)

    def test_plain_npy_file_rejected(self, tmp_path):
        from pqlab.market_paths import load_slices

        path = tmp_path / "store.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(DataError, match="not an npz"):
            load_slices(path)

    def tampered(self, series, tmp_path, **changes):
        from pqlab.market_paths import save_slices

        path = tmp_path / "tampered.npz"
        save_slices(path, self.build(series))
        data = dict(np.load(path))
        data.update({key: np.asarray(value) for key, value in changes.items()})
        np.savez(path, **data)
        return path

    @pytest.mark.parametrize("changes, needle", [
        ({"l_max": [20, 20]}, "l_max must be a 0-d array"),
        ({"l_max": 20.0}, "l_max must be a 0-d array"),
        ({"l_max": 99}, "l_max = 99, but the longest slice"),
        ({"l_max": 3}, "l_max = 3, but the longest slice"),
        ({"test_r": np.empty(0)}, "test_r has 0 entries"),
        ({"train_s0": [100.0]}, "train_s0 has 1 entries"),
        ({"test_start": np.array(["2020-01-02"], dtype="datetime64[D]")}, "test_start has 1"),
        ({"test_sigma": [[0.2]]}, "test_sigma must be a 1-d array"),
        ({"test_window": ["30"]}, "test_window must be a 1-d array of dtype kind iu"),
        ({"train_offsets": [1, 2]}, "train_offsets must rise from 0"),
        ({"train_offsets": [0]}, "train_offsets must rise from 0"),
        ({"train_offsets": np.empty(0, dtype=np.int64)}, "train_offsets must rise from 0"),
        ({"skipped_names": "straddles_split"}, "skipped_names must be a 1-d array"),
        ({"skipped_names": ["a"], "skipped_counts": [1, 2]}, "1 skipped_names but 2"),
        ({"skipped_counts": [0.5]}, "skipped_counts must be a 1-d array"),
    ])
    def test_inconsistent_store_rejected(self, series, tmp_path, changes, needle):
        from pqlab.market_paths import load_slices

        path = self.tampered(series, tmp_path, **changes)
        with pytest.raises(DataError, match=needle) as info:
            load_slices(path)
        assert "tampered.npz" in str(info.value)

    def test_decreasing_offsets_rejected(self, series, tmp_path):
        from pqlab.market_paths import load_slices, save_slices

        path = tmp_path / "tampered.npz"
        save_slices(path, self.build(series))
        data = dict(np.load(path))
        offsets = data["test_offsets"].copy()
        offsets[1], offsets[2] = offsets[2], offsets[1]
        data["test_offsets"] = offsets
        np.savez(path, **data)
        with pytest.raises(DataError, match="test_offsets must rise"):
            load_slices(path)


class TestParseDate:
    """Only a literal YYYY-MM-DD is a date: no wall clock, no partial dates."""

    BAD = ["today", "now", "2016", "2016-01", "20160105", "2016-01-05T10", "",
           "2016-1-05", "2016-02-30", "2016-01-05 ", "\u0662\u0660\u0661\u0666-01-05"]

    def test_literal_date(self):
        assert parse_date("2016-01-05") == np.datetime64("2016-01-05", "D")
        assert parse_date("2016-02-29").dtype == np.dtype("datetime64[D]")

    @pytest.mark.parametrize("text", BAD)
    def test_other_forms_rejected(self, text):
        with pytest.raises(ValueError):
            parse_date(text)

    def test_non_text_rejected(self):
        # a datetime64 is accepted (next test); other non-text values are not
        for value in (20160105, b"2016-01-05", None):
            with pytest.raises(ValueError):
                parse_date(value)

    def test_datetime64_taken_as_its_day(self):
        day = np.datetime64("2016-01-05", "D")
        for value in (day, np.datetime64("2016-01-05T10:30"), np.datetime64("2016-01-05", "ns")):
            assert parse_date(value) == day
            assert parse_date(value).dtype == np.dtype("datetime64[D]")
        with pytest.raises(ValueError):
            parse_date(np.datetime64("NaT"))

    @pytest.mark.parametrize("text", ["today", "now", "2016"])
    def test_slice_dataset_split_date(self, series, text):
        rates = flat_rates([30], str(series.dates[0]))
        with pytest.raises(ConfigError, match="split_date"):
            slice_dataset(series, rates, [30], text)

    @pytest.mark.parametrize("text", BAD)
    def test_generator_start_date(self, text):
        with pytest.raises(ConfigError, match="start_date"):
            GeneratorConfig(start_date=text)

    @pytest.mark.parametrize("text", BAD[:6])
    def test_series_csv_date_cell(self, tmp_path, text):
        p = tmp_path / "series.csv"
        p.write_text("date,close,is_trading_day\n2020-01-01,1.0,1\n"
                     f"{text},1.0,1\n")
        with pytest.raises(DataError, match="bad row"):
            load_series_csv(p)

    @pytest.mark.parametrize("text", BAD[:6])
    def test_rates_csv_date_cell(self, tmp_path, text):
        p = tmp_path / "rates.csv"
        p.write_text(f"date,tenor_days,rate\n{text},30,0.02\n")
        with pytest.raises(DataError, match="bad row"):
            load_rates_csv(p)

