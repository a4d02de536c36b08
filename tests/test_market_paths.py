import math
import re
from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pqlab.market_paths as mp
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


def first_kept_start(series, windows, split, window):
    """The earliest start date that slice_dataset keeps for ``window``."""
    out = slice_dataset(series, flat_rates(windows, str(series.dates[0])), windows, split)
    return min(sl.start_date for sl in out.train + out.test
               if sl.window_calendar_days == window)


def late_rates(windows, firsts):
    """A flat rate table per window whose one rate is dated ``firsts[w]``."""
    return {w: RateTable(w, np.array([firsts[w]], dtype="datetime64[D]"),
                         np.array([0.02 + 0.001 * w])) for w in windows}


class TestLateRateTables:
    """Rate tables that start after the series does: slice_dataset fails on
    the (start, window) the per-slice oracle reaches first, or not at all."""

    def case(self):
        series, _ = random_calendar_case(4, 200, 0.6, 2)
        return series, series.dates[150]

    def assert_same_error(self, series, rates, windows, split):
        with pytest.raises(DataError) as want:
            oracles.slice_dataset_reference(series, rates, windows, split)
        with pytest.raises(DataError, match=re.escape(str(want.value))):
            slice_dataset(series, rates, windows, split)
        return str(want.value)

    def test_table_after_the_first_kept_start(self):
        series, split = self.case()
        first = first_kept_start(series, (7,), split, 7)
        rates = late_rates((7,), {7: first + np.timedelta64(1, "D")})
        message = self.assert_same_error(series, rates, (7,), split)
        assert message == f"no 7-day rate available on or before {first}"

    def test_table_after_skipped_starts_only(self):
        # the table's one rate falls on the first kept start: every start
        # before it is skipped (too little history), so nothing is missing
        series, split = self.case()
        first = first_kept_start(series, (7,), split, 7)
        assert first > series.trading_dates[0]
        rates = late_rates((7,), {7: first})
        got = slice_dataset(series, rates, (7,), split)
        want = oracles.slice_dataset_reference(series, rates, (7,), split)
        assert slices_fingerprint(got) == slices_fingerprint(want)

    def test_two_late_tables_name_the_first_slice_in_start_order(self):
        # 2-day windows on a sparse calendar skip many starts for want of a
        # trading day, so the 30-day window keeps an earlier start than the
        # 2-day window does; both tables start late, and the oracle fails
        # at the 30-day slice although the 2-day window is checked first
        series, _ = random_calendar_case(2, 400, 0.2, 2)
        split = series.dates[300]
        first2 = first_kept_start(series, (2, 30), split, 2)
        first30 = first_kept_start(series, (2, 30), split, 30)
        assert first30 < first2
        rates = late_rates((2, 30), {2: first2 + np.timedelta64(1, "D"),
                                     30: first2 + np.timedelta64(1, "D")})
        message = self.assert_same_error(series, rates, (2, 30), split)
        assert message == f"no 30-day rate available on or before {first30}"


class TestSliceDatasetWork:
    """Counts, not timings: the work slice_dataset does per series."""

    def test_std_calls_do_not_grow_with_the_series(self, monkeypatch):
        calls = []
        real_std = np.std

        def counting_std(*args, **kwargs):
            calls.append(1)
            return real_std(*args, **kwargs)

        monkeypatch.setattr(np, "std", counting_std)
        counts = []
        for n_days in (700, 2500):
            series = synthesize_series(GeneratorConfig(n_days=n_days), seed=3)
            split = series.dates[n_days * 3 // 4]
            calls.clear()
            out = slice_dataset(series, flat_rates([30], str(series.dates[0])), [30], split)
            assert len(out.train) > 100
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2


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

    def test_array_of_dates_equals_each_date_alone(self):
        dates = np.array(["2020-01-01", "2020-02-01", "2020-03-01"], dtype="datetime64[D]")
        table = RateTable(30, dates, np.array([0.02, 0.03, 0.025]))
        days = np.datetime64("2020-01-01") + np.arange(0, 120, 7)
        got = table.rate_at(days)
        assert isinstance(got, np.ndarray) and got.shape == days.shape
        assert [float(v).hex() for v in got] == [table.rate_at(d).hex() for d in days]
        assert type(table.rate_at(days[0])) is float
        assert table.rate_at(days[:0]).shape == (0,)

    def test_array_names_its_first_date_before_the_table(self):
        table = RateTable(
            30, np.array(["2020-06-01"], dtype="datetime64[D]"), np.array([0.02])
        )
        days = np.array(["2020-07-01", "2020-05-03", "2020-05-01"], dtype="datetime64[D]")
        with pytest.raises(DataError, match="^no 30-day rate available on or before "
                                            "2020-05-03$"):
            table.rate_at(days)


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

    def test_test_only_load_equals_full_load(self, series, tmp_path):
        from pqlab.market_paths import load_slices, save_slices

        path = tmp_path / "slices.npz"
        save_slices(path, self.build(series))
        full = load_slices(path)
        test_only = load_slices(path, groups=("test",))
        assert test_only.train is None
        assert slices_fingerprint(replace(test_only, train=[])) == \
            slices_fingerprint(replace(full, train=[]))
        train_only = load_slices(path, groups=("train",))
        assert train_only.test is None and train_only.train
        assert slices_fingerprint(replace(train_only, test=[])) == \
            slices_fingerprint(replace(full, test=[]))

    def test_loaded_returns_are_read_only(self, series, tmp_path):
        from pqlab.market_paths import load_slices, save_slices

        path = tmp_path / "slices.npz"
        save_slices(path, self.build(series))
        full = load_slices(path)
        for sl in (full.train[0], full.test[-1], load_slices(path, groups=("test",)).test[0]):
            with pytest.raises(ValueError, match="read-only"):
                sl.log_returns[0] = 1.0

    def test_unknown_group_rejected(self, series, tmp_path):
        from pqlab.market_paths import load_slices, save_slices

        path = tmp_path / "slices.npz"
        save_slices(path, self.build(series))
        with pytest.raises(ValueError, match="unknown slice group"):
            load_slices(path, groups=("test", "valid"))

    @pytest.mark.parametrize("member, index, value, needle", [
        ("train_s0", 0, -1.0, "train_s0 must be finite and positive"),
        ("train_s0", -1, np.inf, "train_s0 must be finite and positive"),
        ("train_sigma", 0, -0.1, "train_sigma must be finite and non-negative"),
        ("train_sigma", 3, np.nan, "train_sigma must be finite and non-negative"),
        ("train_r", 0, np.nan, "train_r must be finite"),
        ("train_tcal", 0, -np.inf, "train_tcal must be finite"),
        ("train_ttrad", 0, np.nan, "train_ttrad must be finite"),
        ("train_ttrad", 0, 1.0, "train_ttrad must be at most tcal"),
        ("train_returns", 5, np.nan, "train_returns must be finite"),
    ])
    def test_group_left_packed_is_still_checked(self, series, tmp_path, member, index,
                                                value, needle):
        # a value PathSlice or ConditionVector would refuse is a DataError
        # whether or not its group is unpacked
        from pqlab.market_paths import load_slices, save_slices

        path = tmp_path / "slices.npz"
        save_slices(path, self.build(series))
        data = dict(np.load(path))
        data[member] = data[member].copy()
        data[member][index] = value
        np.savez(path, **data)
        with pytest.raises(DataError):
            load_slices(path)
        with pytest.raises(DataError, match=needle) as info:
            load_slices(path, groups=("test",))
        assert "slices.npz" in str(info.value)

    def test_empty_slice_in_group_left_packed(self, series, tmp_path):
        # the last train slice loses its returns: no slice may be empty
        from pqlab.market_paths import load_slices, save_slices

        path = tmp_path / "slices.npz"
        save_slices(path, self.build(series))
        data = dict(np.load(path))
        offsets = data["train_offsets"].copy()
        offsets[-1] = offsets[-2]
        data["train_offsets"] = offsets
        data["train_returns"] = data["train_returns"][: offsets[-1]]
        np.savez(path, **data)
        with pytest.raises(DataError, match="at least one trading day"):
            load_slices(path)
        with pytest.raises(DataError, match="train_offsets must be strictly increasing"):
            load_slices(path, groups=("test",))

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


def names_in(directory):
    """The file names in ``directory``: a writer must leave no ``.tmp`` behind."""
    return sorted(p.name for p in directory.iterdir())


class TestArtifactWriter:
    """Every artifact is written to ``<name>.tmp`` and replaces ``<name>`` only
    when it is whole, so a failed write keeps the previous file's bytes."""

    def test_rows_that_raise_keep_the_previous_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        mp.write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        before = path.read_bytes()
        assert before == b"a,b\r\n1,2\r\n3,4\r\n"

        def rows():
            for i in range(5000):  # more than one buffer's worth reaches the file
                yield [i, repr(i / 7)]
            raise ValueError("row 5000 is bad")

        with pytest.raises(ValueError, match="row 5000"):
            mp.write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == before
        assert names_in(tmp_path) == ["table.csv"]

    def test_error_inside_a_text_artifact_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "game_european.txt"
        with mp.artifact(path) as fh:
            fh.write("previous table\n")
        with pytest.raises(RuntimeError):
            with mp.artifact(path) as fh:
                fh.write("partial table\n" * 1000)
                fh.flush()
                raise RuntimeError("stopped mid-write")
        assert path.read_bytes() == b"previous table\n"
        assert names_in(tmp_path) == ["game_european.txt"]

    def test_text_artifact_is_utf8_with_newlines_as_written(self, tmp_path):
        path = tmp_path / "config.ini"
        with mp.artifact(path) as fh:
            fh.write("name = \u00e9t\u00e9\r\nnext\n")
        assert path.read_bytes() == "name = \u00e9t\u00e9\r\nnext\n".encode("utf-8")

    def test_savez_error_keeps_the_previous_slice_store(self, series, tmp_path,
                                                        monkeypatch):
        split = TestSliceStore().build(series)
        path = tmp_path / "slices.npz"
        mp.save_slices(path, replace(split, test=split.test[:1]))
        before = path.read_bytes()
        savez = np.savez

        def failing(file, **arrays):  # the whole new archive, then a full disk
            savez(file, **arrays)
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", failing)
        with pytest.raises(DataError, match="cannot write .*slices.npz: no space"):
            mp.save_slices(path, split)
        assert path.read_bytes() == before
        assert names_in(tmp_path) == ["slices.npz"]
        assert len(mp.load_slices(path).test) == 1

    def test_stale_tmp_of_a_killed_run_is_overwritten(self, series, tmp_path):
        split = TestSliceStore().build(series)
        fresh = tmp_path / "fresh.npz"
        mp.save_slices(fresh, split)
        path = tmp_path / "slices.npz"
        (tmp_path / "slices.npz.tmp").write_bytes(b"PK truncated by a kill" * 10_000)
        (tmp_path / "dataset.manifest.tmp").write_text("stale=1\n" * 100)
        mp.save_slices(path, split)
        mp.write_manifest(tmp_path / "dataset.manifest", {"test_slices": 3})
        assert path.read_bytes() == fresh.read_bytes()
        assert len(mp.load_slices(path).test) == len(split.test)
        assert read_manifest(tmp_path / "dataset.manifest") == {"test_slices": "3"}
        assert names_in(tmp_path) == ["dataset.manifest", "fresh.npz", "slices.npz"]


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

