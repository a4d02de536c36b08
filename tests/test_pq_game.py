"""Quote/decision/settlement oracles and whole-game invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cashflow_schedule, discount_value

import pqlab.pq_game as game
import pqlab.q_pricer as qp
from pqlab.errors import ConfigError, DataError
from pqlab.market_paths import ConditionVector, PathSlice, to_prices
from pqlab.payoffs import (Accumulator, Asian, European, Lookback, Snowball,
                           linear_calendar_fraction)


def make_slice(seed, n=20, s0=100.0, sigma=0.2, r=0.03, drift=0.0):
    rng = np.random.default_rng(seed)
    daily = sigma / math.sqrt(252.0)
    returns = rng.normal(loc=drift, scale=daily, size=n)
    cond = ConditionVector(
        sigma_hist=sigma, r=r, t_calendar=2.0 * n / 365.0,
        t_trading=n / 252.0, n_trading=n,
    )
    return PathSlice(
        s0=s0, log_returns=returns, condition=cond, window_calendar_days=2 * n,
        start_date=np.datetime64("2021-01-04") + seed,
    )


def play(slices, contract, p_source, config):
    """One contract's game: value its slices, then play its levels."""
    (values,) = game.value_slices(slices, [contract], p_source, config)
    return game.run_game(values, contract, config)


def horizon_mismatch_source(s, params):
    """P source whose paths are one day longer than the slice."""
    return np.full((16, s.condition.n_trading + 1), s.s0)


def scaled_gbm_source(factor):
    """P source that inflates or deflates Q's own paths around s0."""

    def source(s, params):
        paths = qp.simulate_gbm(params)
        return s.s0 + factor * (paths - s.s0)

    return source


class TestMakeQuote:
    def test_relative_hand_values(self):
        q = game.make_quote(100.0, 0.1)
        assert (q.bid, q.fair, q.ask) == (90.0, 100.0, 110.0)

    def test_zero_level_collapses(self):
        q = game.make_quote(42.0, 0.0)
        assert q.bid == q.ask == q.fair == 42.0

    def test_absolute_hand_values(self):
        q = game.make_quote(50_000.0, 0.005, mode="absolute", notional=1_000_000.0)
        assert (q.bid, q.ask) == (45_000.0, 55_000.0)

    def test_negative_fair_stays_ordered(self):
        q = game.make_quote(-40.0, 0.2)
        assert q.bid <= q.fair <= q.ask
        assert q.bid == -48.0 and q.ask == -32.0

    def test_negative_level_rejected(self):
        with pytest.raises(ConfigError):
            game.make_quote(100.0, -0.1)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected(self, level):
        with pytest.raises(ConfigError, match="greediness level"):
            game.make_quote(1.0, level)

    def test_non_finite_fair_rejected(self):
        with pytest.raises(DataError):
            game.make_quote(float("nan"), 0.1)

    @given(st.floats(-1e6, 1e6), st.floats(0, 1))
    def test_band_always_ordered(self, fair, level):
        q = game.make_quote(fair, level)
        assert q.bid <= q.fair <= q.ask


class TestDecideTrade:
    def test_long_above_band(self):
        q = game.make_quote(100.0, 0.1)
        assert game.decide_trade(125.0, q) == "long"

    def test_short_below_band(self):
        q = game.make_quote(100.0, 0.1)
        assert game.decide_trade(70.0, q) == "short"

    def test_inside_band_none(self):
        q = game.make_quote(100.0, 0.1)
        assert game.decide_trade(100.0, q) == "none"

    def test_exact_threshold_is_no_trade(self):
        q = game.make_quote(100.0, 0.0)
        assert game.decide_trade(110.0, q, threshold=0.10) == "none"
        assert game.decide_trade(110.0 + 1e-6, q, threshold=0.10) == "long"

    def test_tie_at_zero_threshold_none(self):
        q = game.make_quote(100.0, 0.0)
        assert game.decide_trade(100.0, q, threshold=0.0) == "none"

    def test_near_zero_quote_guarded(self):
        q = game.make_quote(0.0, 0.1)
        assert game.decide_trade(1.0, q) == "long"
        assert game.decide_trade(-1.0, q) == "short"

    @given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
           st.floats(0.01, 0.5), st.floats(0, 0.5))
    def test_at_most_one_side(self, fair, p_value, level, theta):
        q = game.make_quote(fair, level)
        side = game.decide_trade(p_value, q, theta)
        assert side in ("long", "short", "none")


class TestSettle:
    def test_long_gain(self):
        assert game.settle("long", 110.0, 120.0) == (10.0, -10.0)

    def test_short_loss(self):
        assert game.settle("short", 90.0, 120.0) == (-30.0, 30.0)

    def test_flat_at_exec(self):
        assert game.settle("long", 55.0, 55.0) == (0.0, 0.0)

    def test_none_rejected(self):
        with pytest.raises(ConfigError):
            game.settle("none", 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["long", "short"])
    def test_non_finite_price_or_realized_rejected(self, bad, side):
        with pytest.raises(DataError, match="exec_price"):
            game.settle(side, bad, 1.0)
        with pytest.raises(DataError, match="realized"):
            game.settle(side, 1.0, bad)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.sampled_from(["long", "short"]))
    def test_zero_sum_bitwise(self, exec_price, realized, side):
        pnl_p, pnl_q = game.settle(side, exec_price, realized)
        assert pnl_p + pnl_q == 0.0
        assert pnl_q == -pnl_p


class TestSharpe:
    def test_constant_positive_is_na(self):
        assert game.sharpe_annualized([1.0, 1.0, 1.0]) is None

    def test_all_zero_is_na(self):
        assert game.sharpe_annualized([0.0, 0.0]) is None

    def test_alternating_zero_mean(self):
        assert game.sharpe_annualized([1.0, -1.0, 1.0, -1.0]) == 0.0

    def test_fixed_vector_oracle(self):
        # mean 1.5, sample std sqrt(5/3), ratio * sqrt(252)
        got = game.sharpe_annualized([2.0, 1.0, 3.0, 0.0])
        assert abs(got - 18.444511378727277) < 1e-10

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            game.sharpe_annualized([1.0])


class TestRunGameInvariants:
    def setup_method(self):
        self.slices = [make_slice(seed) for seed in range(6)]
        self.config = game.GameConfig(q_paths=512, seed=7)

    def test_p_equals_q_never_trades(self):
        outcomes = play(self.slices, European(), game.gbm_p_source,
                                 config=self.config)
        assert len(outcomes) == len(game.RELATIVE_LEVELS)
        for outcome in outcomes:
            assert outcome.report.trades == 0
            assert outcome.report.cum_pnl == 0.0
            assert outcome.report.win_rate == 0.0
            assert outcome.report.sharpe is None

    def test_p_equals_q_tie_at_zero_threshold(self):
        config = game.GameConfig(levels=(0.0,), threshold=0.0, q_paths=512, seed=7)
        outcomes = play(self.slices, European(), game.gbm_p_source,
                                 config=config)
        assert outcomes[0].report.trades == 0

    def test_zero_sum_every_trade(self):
        outcomes = play(self.slices, European(),
                                 scaled_gbm_source(2.0), config=self.config)
        traded = [rec for outcome in outcomes for rec in outcome.records]
        assert traded, "expected at least one trade from the inflated source"
        for rec in traded:
            assert rec.pnl_p + rec.pnl_q == 0.0
            assert rec.pnl_q == -rec.pnl_p

    def test_trade_count_monotone_in_level(self):
        outcomes = play(self.slices, European(),
                                 scaled_gbm_source(2.0), config=self.config)
        counts = [outcome.report.trades for outcome in outcomes]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > 0

    def test_win_rate_recount(self):
        outcomes = play(self.slices, European(),
                                 scaled_gbm_source(2.0), config=self.config)
        for outcome in outcomes:
            rep = outcome.report
            assert rep.trades == rep.longs + rep.shorts
            if rep.trades:
                wins = sum(1 for rec in outcome.records if rec.pnl_p > 0.0)
                assert rep.win_rate == wins / rep.trades
            recount = math.fsum(rec.pnl_p for rec in outcome.records)
            assert rep.cum_pnl == recount

    def test_sides_name_every_slice_and_match_the_records(self):
        outcomes = play(self.slices, European(), scaled_gbm_source(2.0),
                        config=self.config)
        for outcome in outcomes:
            assert len(outcome.sides) == len(self.slices)
            traded = [side for side in outcome.sides if side != game.NONE]
            assert traded == [rec.side for rec in outcome.records]

    def test_long_pnl_decreases_with_level(self):
        # single slice, strongly inflated P: the same long executes at a
        # wider ask as the level grows
        outcomes = play([self.slices[0]], European(),
                                 scaled_gbm_source(3.0),
                                 config=replace(self.config, levels=(0.0, 0.10)))
        first, second = outcomes
        assert first.records and second.records
        assert first.records[0].side == "long"
        assert second.records[0].side == "long"
        assert second.records[0].exec_price > first.records[0].exec_price
        assert second.records[0].pnl_p < first.records[0].pnl_p

    def test_bitwise_reproducible(self):
        a = play(self.slices, European(), scaled_gbm_source(2.0),
                          config=self.config)
        b = play(self.slices, European(), scaled_gbm_source(2.0),
                          config=self.config)
        for left, right in zip(a, b):
            assert left.report == right.report

    def test_deflated_source_shorts(self):
        outcomes = play(self.slices, European(),
                                 scaled_gbm_source(0.1),
                                 config=replace(self.config, levels=(0.0,)))
        report = outcomes[0].report
        assert report.shorts > 0
        assert report.longs == 0

    def test_horizon_mismatch_rejected(self):
        # the P leg's error is the same whether Q prices beside it or first
        for threads in (1, 2):
            with pytest.raises(DataError, match="P paths must be"):
                game.value_slices(self.slices, [European()], horizon_mismatch_source,
                                  self.config, threads)

    @pytest.mark.parametrize("product", game.PRODUCTS)
    def test_non_finite_p_paths_rejected(self, product):
        def nan_source(s, params):
            paths = game.gbm_p_source(s, params)
            paths[3, -1] = np.nan
            return paths

        for threads in (1, 2):
            with pytest.raises(DataError, match="paths must be finite"):
                game.value_slices(self.slices, [game.CONTRACTS[product]()], nan_source,
                                  self.config, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_q_error_wins_when_both_legs_fail(self, threads):
        # one thread prices Q before it asks P for a path, so Q's overflow is
        # the error at every thread count, though P fails on its first slice
        huge = Snowball(notional=1e307)
        config = replace(self.config, q_paths=2048)
        with pytest.raises(DataError, match=r"the mean overflows float64 \(a sum of 2048 terms\)"):
            game.value_slices(self.slices, [huge], horizon_mismatch_source, config, threads)

    def test_empty_slices_rejected(self):
        with pytest.raises(DataError, match="no test slices"):
            game.value_slices([], [European()], game.gbm_p_source, self.config)

    def test_snowball_defaults_absolute(self):
        assert Snowball().quote_mode == "absolute"
        assert game.default_levels(Snowball()) == game.ABSOLUTE_LEVELS
        assert Accumulator().quote_mode == "relative"
        assert game.default_levels(European()) == game.RELATIVE_LEVELS

    def test_snowball_game_runs_with_notional_spreads(self):
        outcomes = play(self.slices[:3], Snowball(),
                                 scaled_gbm_source(1.0),
                                 config=replace(self.config, levels=(0.0, 0.02)))
        assert len(outcomes) == 2
        # a 2% of 1M spread is 20k wide; the band must be that wide
        for outcome in outcomes:
            assert outcome.report.trades == outcome.report.longs + outcome.report.shorts

    def test_discount_switch_changes_realized(self):
        base = play([self.slices[0]], European(),
                             scaled_gbm_source(3.0),
                             config=game.GameConfig(levels=(0.0,), q_paths=512, seed=7))
        nominal = play([self.slices[0]], European(),
                                scaled_gbm_source(3.0),
                                config=game.GameConfig(levels=(0.0,), q_paths=512, seed=7,
                                                       discount=False))
        rec_d = base[0].records[0]
        rec_n = nominal[0].records[0]
        assert rec_d.exec_price == rec_n.exec_price
        assert rec_n.realized >= rec_d.realized  # positive rate discounts down


class TestSharedQSource:
    """value_slices prices the whole book on every slice from one Q call."""

    BOOK = (European(), Lookback(), Asian(), Accumulator(), Snowball())

    def setup_method(self):
        self.slices = [make_slice(seed) for seed in range(4)]
        self.config = game.GameConfig(levels=(0.0, 0.1), q_paths=300, seed=7)

    def test_games_equal_the_default_source(self):
        # the book's values equal each contract valued alone, bit for bit,
        # also when Q prices on a worker beside P
        p_source = scaled_gbm_source(1.5)
        book = game.value_slices(self.slices, self.BOOK, p_source, self.config, threads=2)
        assert len(book) == len(self.BOOK)
        trades = 0
        for contract, values in zip(self.BOOK, book):
            (alone,) = game.value_slices(self.slices, [contract], p_source, self.config)
            assert values == alone
            assert [v.start_date for v in values] == [s.start_date for s in self.slices]
            outcomes = game.run_game(values, contract, self.config)
            assert outcomes == game.run_game(alone, contract, self.config)
            trades += sum(o.report.trades for o in outcomes)
        assert trades > 0

    def test_one_q_call_prices_every_slice(self, monkeypatch):
        q_calls, p_calls = [], []
        real = game.price_books

        def counting(jobs):
            jobs = list(jobs)
            q_calls.append([params for _, params, _ in jobs])
            return real(jobs)

        def p_source(s, params):
            p_calls.append(params)
            return game.gbm_p_source(s, params)

        monkeypatch.setattr(game, "price_books", counting)
        game.value_slices(self.slices, self.BOOK, p_source, self.config)
        assert q_calls == [p_calls]
        assert len(p_calls) == len(self.slices)
        assert len({params.seed for params in p_calls}) == 1

    def test_q_values_equal_p_on_the_gbm_source(self):
        # slices of 18, 19 and 20 days share one Q seed: simulate_gbm on a
        # slice's q_params reproduces the paths Q priced it on, bit for bit,
        # over two chunks, whether Q prices first or beside P
        slices = [make_slice(seed, n=n) for seed, n in enumerate((20, 18, 19))]
        config = game.GameConfig(q_paths=qp.CHUNK_PATHS + 11, seed=3)
        for threads in (1, 2):
            book = game.value_slices(slices, self.BOOK, game.gbm_p_source, config, threads)
            for contract, values in zip(self.BOOK, book):
                for v in values:
                    assert v.fair.hex() == v.p_value.hex(), (contract, threads)

    def test_p_paths_reach_every_contract_read_only(self, monkeypatch):
        returned, seen = [], []
        real = game.p_price

        def p_source(s, params):
            returned.append(game.gbm_p_source(s, params))
            return returned[-1]

        def recording(contract, paths, *args, **kwargs):
            seen.append(paths)
            return real(contract, paths, *args, **kwargs)

        monkeypatch.setattr(game, "p_price", recording)
        game.value_slices(self.slices[:1], self.BOOK, p_source, self.config)
        # each contract's other p_price call values the realized close row
        assert len(seen) == 2 * len(self.BOOK)
        p_seen = [paths for paths in seen if np.shares_memory(paths, returned[0])]
        assert len(p_seen) == len(self.BOOK)
        assert all(paths is p_seen[0] for paths in p_seen)
        assert not p_seen[0].flags.writeable
        assert returned[0].flags.writeable  # the source's own array is untouched


class TestRealizedLeg:
    """The realized value is P's estimator on the slice's own close row."""

    BOOK = (European(), Lookback(), Asian(), Accumulator(), Snowball())

    def setup_method(self):
        # strong drifts up and down reach every barrier: accumulator and
        # snowball knock-outs, snowball knock-ins, closes under the strike
        self.slices = [make_slice(seed, sigma=0.4, drift=drift)
                       for seed, drift in enumerate((0.0, 0.015, -0.015, 0.004, -0.006))]

    @pytest.mark.parametrize("discount", [True, False])
    def test_equals_p_price_on_one_row_and_the_oracle(self, discount):
        config = game.GameConfig(q_paths=64, seed=7, discount=discount)
        book = game.value_slices(self.slices, self.BOOK, game.gbm_p_source, config)
        for contract, values in zip(self.BOOK, book):
            for s, v in zip(self.slices, values):
                cond = s.condition
                r = cond.r if discount else 0.0
                row = to_prices(s.s0, s.log_returns)
                est = qp.p_price(contract, row[None, :], s.s0, r, t_calendar=cond.t_calendar)
                assert v.realized.hex() == est.value.hex(), contract
                assert est.std_error == 0.0 and est.n_paths == 1
                cal = linear_calendar_fraction(cond.n_trading, cond.t_calendar)
                ref = discount_value(cashflow_schedule(contract, row, s.s0, cal), r)
                assert v.realized == pytest.approx(ref, rel=1e-12), contract

    def test_barriers_are_reached(self):
        events = set()
        for s in self.slices:
            row = to_prices(s.s0, s.log_returns)
            cal = linear_calendar_fraction(s.condition.n_trading, s.condition.t_calendar)
            for contract in (Accumulator(), Snowball()):
                events.add((type(contract).__name__,
                            cashflow_schedule(contract, row, s.s0, cal).terminated_early))
            events.add(("ki", bool((row < Snowball().ki_ratio * s.s0).any())))
            events.add(("under_strike", bool((row < Accumulator().discount * s.s0).any())))
        assert {("Accumulator", True), ("Accumulator", False), ("Snowball", True),
                ("Snowball", False), ("ki", True), ("under_strike", True)} <= events

    def test_one_q_call_then_two_p_price_calls_per_contract(self, monkeypatch):
        calls = []
        real_q, real_p = game.price_books, game.p_price

        def counting_q(jobs):
            calls.append("Q")
            return real_q(jobs)

        def counting_p(contract, paths, *args, **kwargs):
            calls.append("realized" if len(paths) == 1 else "P")
            return real_p(contract, paths, *args, **kwargs)

        def no_schedule(*args, **kwargs):
            raise AssertionError("the game values no one-path schedule")

        monkeypatch.setattr(game, "price_books", counting_q)
        monkeypatch.setattr(game, "p_price", counting_p)
        monkeypatch.setattr(game, "contract_cashflows", no_schedule)
        config = game.GameConfig(q_paths=64, seed=7)
        game.value_slices(self.slices, self.BOOK, game.gbm_p_source, config)
        assert calls == ["Q"] + ["P", "realized"] * len(self.BOOK) * len(self.slices)


class TestReportValidation:
    def test_trade_partition_enforced(self):
        with pytest.raises(DataError):
            game.GameReport(level=0.1, cum_pnl=0.0, trades=3, longs=1,
                            shorts=1, win_rate=0.5, sharpe=None)

    def test_win_rate_bounds_enforced(self):
        with pytest.raises(DataError):
            game.GameReport(level=0.1, cum_pnl=0.0, trades=2, longs=1,
                            shorts=1, win_rate=1.5, sharpe=None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["cum_pnl", "sharpe"])
    def test_non_finite_pnl_or_sharpe_rejected(self, field, bad):
        report = dict(level=0.1, cum_pnl=1.5, trades=2, longs=1, shorts=1,
                      win_rate=0.5, sharpe=0.25)
        game.GameReport(**report)
        with pytest.raises(DataError, match=field):
            game.GameReport(**{**report, field: bad})


class TestReportOutput:
    def build_reports(self):
        return [
            game.GameReport(level=0.0, cum_pnl=123.456, trades=10, longs=7,
                            shorts=3, win_rate=0.7, sharpe=1.25),
            game.GameReport(level=0.1, cum_pnl=-4.5, trades=2, longs=0,
                            shorts=2, win_rate=0.5, sharpe=None),
        ]

    def test_csv_format(self, tmp_path):
        target = tmp_path / "game.csv"
        game.write_game_csv(target, self.build_reports())
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "level,cum_pnl,trades,longs,shorts,win_rate,sharpe"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 123.456
        assert first[2:5] == ["10", "7", "3"]
        assert lines[2].split(",")[-1] == "NA"

    def test_text_table_alignment(self):
        table = game.format_game_table(self.build_reports(), title="european")
        lines = table.strip().splitlines()
        assert lines[0] == "european"
        assert lines[1].split() == game.GAME_CSV_HEADER.split(",")
        assert len(lines) == 4
        assert "NA" in lines[3]
