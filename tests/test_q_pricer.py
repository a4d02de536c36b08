import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    accumulator_flows_reference,
    black_scholes_call,
    cashflow_schedule,
    discount_value,
    estimate_reference,
    lookback_flows_reference,
    simulate_gbm_reference,
    snowball_flows_reference,
)

import pqlab.payoffs as payoffs
import pqlab.q_pricer as qp
from pqlab.errors import ConfigError, DataError
from pqlab.payoffs import (
    Accumulator,
    Asian,
    European,
    Lookback,
    Snowball,
    contract_cashflows,
    linear_calendar_fraction,
)
from pqlab.q_pricer import (
    CHUNK_PATHS,
    GbmParams,
    PriceEstimate,
    _estimate,
    _exact_total,
    _rounded,
    _simulate_chunk,
    discounted_values,
    p_price,
    price,
    price_all,
    simulate_gbm,
)


def params(**kw):
    base = dict(s0=100.0, r=0.05, sigma=0.2, n_days=252, n_paths=20_000, seed=7)
    base.update(kw)
    return GbmParams(**base)


class TestSimulateGbm:
    def test_zero_vol_is_deterministic_drift(self):
        p = params(sigma=0.0, n_paths=3, n_days=10)
        paths = simulate_gbm(p)
        t = np.arange(1, 11)
        expected = 100.0 * np.exp(0.05 * t / 252.0)
        for row in paths:
            assert np.allclose(row, expected, rtol=1e-14)

    def test_fixed_seed_reproducible(self):
        a = simulate_gbm(params(n_paths=500, n_days=20))
        b = simulate_gbm(params(n_paths=500, n_days=20))
        assert np.array_equal(a, b)

    def test_chunk_prefix_consistency(self):
        # the first rows must not depend on how many paths were requested
        small = simulate_gbm(params(n_paths=100, n_days=8))
        large = simulate_gbm(params(n_paths=CHUNK_PATHS + 50, n_days=8))
        assert np.array_equal(large[:100], small)

    def test_day_prefix_consistency(self):
        # the first days must not depend on how many days were requested
        short = simulate_gbm(params(n_paths=CHUNK_PATHS + 7, n_days=18))
        long = simulate_gbm(params(n_paths=CHUNK_PATHS + 7, n_days=20))
        assert short.tobytes() == np.ascontiguousarray(long[:, :18]).tobytes()

    def test_martingale_property(self):
        p = params(n_paths=100_000, n_days=252)
        s_t = simulate_gbm(p)[:, -1]
        target = 100.0 * math.exp(0.05)
        se = s_t.std(ddof=1) / math.sqrt(len(s_t))
        assert abs(s_t.mean() - target) < 3 * se

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            params(s0=0.0)
        with pytest.raises(ConfigError):
            params(sigma=-0.1)
        with pytest.raises(ConfigError):
            params(n_paths=0)

    @pytest.mark.parametrize("key", ["s0", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            params(**{key: value})


class TestDiscountedValuesAgainstScalarTrace:
    """The vectorized pricer must reproduce the per-path cash-flow trace."""

    contracts = [
        European(),
        Lookback(),
        Asian(),
        Accumulator(discount=0.9, ko_ratio=1.2),
        Snowball(ko_ratio=1.05, ki_ratio=0.9, coupon_pa=0.15),
    ]

    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 40),
        st.floats(-0.02, 0.08),
    )
    def test_matches_cashflow_trace(self, seed, n_days, r):
        rng = np.random.default_rng(seed)
        paths = 100.0 * np.exp(
            np.cumsum(rng.normal(0.0, 0.03, size=(16, n_days)), axis=1)
        )
        t_cal = n_days / 252.0 * (365.0 / 252.0)
        cal = linear_calendar_fraction(n_days, t_cal)
        for contract in self.contracts:
            vec = discounted_values(contract, paths, 100.0, r, t_calendar=t_cal)
            for i in range(len(paths)):
                cf = cashflow_schedule(contract, paths[i], 100.0, cal)
                assert vec[i] == pytest.approx(
                    discount_value(cf, r), rel=1e-12, abs=1e-9
                )


class TestDiscountInPlace:
    def test_keeps_the_out_of_place_bits(self):
        # out-of-place amounts * disc over the reference kernels' flows,
        # laid out day-major and summed over the day rows by numpy, which
        # adds them in day order for more than one path
        rng = np.random.default_rng(8)
        paths = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.04, (64, 17)), axis=1))
        t_cal = 17 / 252 * (365 / 252)
        cal = linear_calendar_fraction(17, t_cal)
        spec = TestDiscountedValuesAgainstScalarTrace.contracts
        refs = {
            spec[1]: lookback_flows_reference(spec[1], paths, 100.0),
            spec[3]: accumulator_flows_reference(spec[3], paths, 100.0),
            spec[4]: snowball_flows_reference(spec[4], paths, 100.0, cal),
        }
        for contract, flows in refs.items():
            discounted = flows.amounts * np.exp(-0.03 * flows.days / 252.0)
            want = np.ascontiguousarray(discounted.T).sum(axis=0)
            got = discounted_values(contract, paths, 100.0, 0.03, t_calendar=t_cal)
            assert got.tobytes() == want.tobytes(), contract


class TestPrice:
    def test_flat_at_strike_is_worthless(self):
        est = price(European(), params(sigma=0.0, r=0.0, n_paths=10, n_days=5))
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_black_scholes_oracle_quick(self):
        est = price(European(), params(n_paths=50_000))
        bs = black_scholes_call(100.0, 100.0, 0.05, 0.2, 1.0)
        assert bs == pytest.approx(10.4506, abs=5e-4)
        assert abs(est.value - bs) < 3 * est.std_error

    def test_lookback_dominates_european_same_seed(self):
        p = params(n_paths=5_000)
        assert price(Lookback(), p).value >= price(European(), p).value

    def test_monotone_in_s0_common_randoms(self):
        lo = price(European(strike_ratio=1.0), params(s0=100.0, n_paths=5_000))
        hi = price(European(strike_ratio=100.0 / 105.0), params(s0=105.0, n_paths=5_000))
        # same strike K=100, higher spot, identical draws
        assert hi.value > lo.value

    def test_threads_do_not_change_result(self):
        p = params(n_paths=CHUNK_PATHS + 123, n_days=30)
        a = price(European(), p, threads=1)
        b = price(European(), p, threads=4)
        assert a.value == b.value
        assert a.std_error == b.std_error


BOOK = (
    European(),
    Lookback(),
    Asian(),
    Accumulator(discount=0.9, ko_ratio=1.2),
    Snowball(ko_ratio=1.05, ki_ratio=0.9, coupon_pa=0.15),
)


class TestPriceAll:
    """One simulation values a whole book, each contract as if priced alone."""

    P = params(n_paths=CHUNK_PATHS + 123, n_days=30)
    T_CAL = 30 / 252 * (365 / 252)

    @pytest.fixture(scope="class")
    def alone(self):
        paths = simulate_gbm(self.P)
        return {c: (price(c, self.P, t_calendar=self.T_CAL),
                    p_price(c, paths, self.P.s0, self.P.r, t_calendar=self.T_CAL))
                for c in BOOK}

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("order", [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 4, 0, 3, 1)])
    def test_bitwise_equal_to_pricing_alone(self, alone, order, threads):
        book = [BOOK[i] for i in order]
        got = price_all(book, self.P, t_calendar=self.T_CAL, threads=threads)
        assert len(got) == len(book)
        for contract, est in zip(book, got):
            for ref in alone[contract]:
                assert est.value.hex() == ref.value.hex(), contract
                assert est.std_error.hex() == ref.std_error.hex(), contract
                assert est.n_paths == ref.n_paths == self.P.n_paths

    def test_kernels_see_read_only_paths(self, monkeypatch):
        # the kernels read the closes that the entry lays out: for a Q
        # chunk, a view of the read-only chunk itself
        writeable = []
        real = payoffs._day_major

        def spy(paths):
            closes = real(paths)
            writeable.append(closes.flags.writeable)
            with pytest.raises(ValueError):
                closes[0, 0] = 0.0
            return closes

        monkeypatch.setattr(payoffs, "_day_major", spy)
        price_all(BOOK, params(n_paths=CHUNK_PATHS + 1, n_days=5), t_calendar=0.03)
        assert writeable == [False, False]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_chunk_is_checked_once(self, monkeypatch, threads):
        # one finiteness check and one layout per chunk, for the whole book
        checked = []
        real = payoffs._day_major

        def counting(paths):
            checked.append(paths.shape)
            return real(paths)

        monkeypatch.setattr(payoffs, "_day_major", counting)
        price_all(BOOK, params(n_paths=CHUNK_PATHS + 1, n_days=5), t_calendar=0.03,
                  threads=threads)
        assert sorted(checked) == [(1, 5), (CHUNK_PATHS, 5)]

    def test_overflowing_paths_raise(self):
        # r offsets the drift, so the huge sigma overflows exp upwards
        huge = params(sigma=1e4, r=0.5e8, n_days=5, n_paths=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert not np.isfinite(simulate_gbm(huge)).all()
            with pytest.raises(DataError, match="paths must be finite"):
                price_all(BOOK, huge, t_calendar=0.03)

    @pytest.mark.parametrize("n_paths", [1, 7, CHUNK_PATHS + 7])
    def test_threads_and_remainder_chunks_keep_the_values(self, n_paths):
        # a lone path, an odd remainder chunk after a full one: one or two
        # workers price each contract as its kernel values the whole matrix
        p = params(n_paths=n_paths, n_days=12, sigma=0.4)
        paths = simulate_gbm(p)
        want = [p_price(c, paths, p.s0, p.r, t_calendar=0.05) for c in BOOK]
        for threads in (1, 2):
            got = price_all(BOOK, p, t_calendar=0.05, threads=threads)
            assert [(e.value.hex(), e.std_error.hex()) for e in got] == [
                (e.value.hex(), e.std_error.hex()) for e in want], threads


class TestPriceBooks:
    """Several books on one Brownian block per chunk, each as if priced alone."""

    JOBS = [
        (BOOK, params(n_paths=CHUNK_PATHS + 9, n_days=20, sigma=0.3), 20 / 252 * 1.45),
        (BOOK[:2], params(n_paths=CHUNK_PATHS + 9, n_days=18, s0=57.0, r=0.01), 0.1),
        (BOOK[2:], params(n_paths=CHUNK_PATHS + 9, n_days=19, sigma=0.18, r=-0.01), 0.11),
        (BOOK[::-1], params(n_paths=CHUNK_PATHS + 9, n_days=3, sigma=0.5), 0.01),
    ]

    @pytest.fixture(scope="class")
    def alone(self):
        return [[(e.value.hex(), e.std_error.hex()) for e in
                 (p_price(c, simulate_gbm(p), p.s0, p.r, t_calendar=t) for c in book)]
                for book, p, t in self.JOBS]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0)])
    def test_threads_and_job_order_keep_the_values(self, alone, threads, order):
        got = qp.price_books([self.JOBS[i] for i in order], threads=threads)
        assert [[(e.value.hex(), e.std_error.hex()) for e in book] for book in got] == [
            alone[i] for i in order]

    @pytest.mark.parametrize("key, value", [("n_paths", CHUNK_PATHS), ("seed", 8)])
    def test_jobs_must_share_paths_and_seed(self, key, value):
        book, p, t = self.JOBS[0]
        other = GbmParams(**{**p.__dict__, key: value})
        with pytest.raises(ConfigError, match="share n_paths and seed"):
            qp.price_books([(book, p, t), (book, other, t)])


class TestLayout:
    """Per-path values do not depend on the memory order or size of the set."""

    def test_c_f_and_chunk_views_keep_every_bit(self):
        p = params(n_paths=300, n_days=23, sigma=0.5)
        closes = _simulate_chunk(p, 0, p.n_paths)
        closes.setflags(write=False)
        c_paths = np.ascontiguousarray(closes.T)
        layouts = (c_paths, np.asfortranarray(c_paths), closes.T)
        assert not closes.T.flags.c_contiguous and c_paths.flags.c_contiguous
        for contract in BOOK:
            values = [discounted_values(contract, paths, p.s0, 0.02, t_calendar=0.09)
                      for paths in layouts]
            flows = [contract.cashflows(paths, p.s0, 0.09) for paths in layouts]
            for got, got_flows in zip(values[1:], flows[1:]):
                assert got.tobytes() == values[0].tobytes(), contract
                assert flows_bytes(got_flows) == flows_bytes(flows[0]), contract
            # each path alone: one-path sets add their flows in day order too
            alone = [discounted_values(contract, row[None, :], p.s0, 0.02, t_calendar=0.09)[0]
                     for row in c_paths[:40]]
            assert np.array(alone).tobytes() == values[0][:40].tobytes(), contract


def flows_bytes(flows):
    days, amounts, stop, early = flows
    days = np.broadcast_to(days, amounts.shape)
    return (days.astype(np.int64).tobytes(), amounts.tobytes(),
            stop.astype(np.int64).tobytes(), early.tobytes())


class TestPPrice:
    def test_identical_paths_zero_error(self):
        path = 100.0 * np.exp(np.cumsum(np.full(10, 0.001)))
        paths = np.tile(path, (50, 1))
        est = p_price(European(), paths, 100.0, 0.02)
        cf = contract_cashflows(European(), path, 100.0)
        assert est.std_error == 0.0
        assert est.value == pytest.approx(discount_value(cf, 0.02), rel=1e-12)

    def test_equals_q_price_on_q_paths(self):
        p = params(n_paths=4_000, n_days=40)
        paths = simulate_gbm(p)
        for contract in BOOK:
            q_est = price(contract, p, t_calendar=0.2)
            p_est = p_price(contract, paths, p.s0, p.r, t_calendar=0.2)
            assert p_est.value.hex() == q_est.value.hex(), contract
            assert p_est.std_error.hex() == q_est.std_error.hex(), contract

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        paths = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, (200, 15)), axis=1))
        est = p_price(European(), paths, 100.0, 0.03)
        perm = rng.permutation(200)
        est2 = p_price(European(), paths[perm], 100.0, 0.03)
        assert est.value == est2.value
        assert est.std_error == est2.std_error

    def test_empty_path_set_rejected(self):
        with pytest.raises(DataError):
            p_price(European(), np.empty((0, 5)), 100.0, 0.0)

    def test_undiscounted_switch(self):
        paths = np.tile(110.0 * np.ones(5), (3, 1))
        disc = p_price(European(), paths, 100.0, 0.05)
        raw = p_price(European(), paths, 100.0, 0.0)
        assert raw.value == pytest.approx(10.0, rel=1e-12)
        assert disc.value < raw.value


class TestPriceEstimate:
    def test_negative_std_error_rejected(self):
        with pytest.raises(DataError):
            PriceEstimate(1.0, -0.1, 10)

    @pytest.mark.parametrize("value, std_error", [
        (math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_non_finite_fields_rejected(self, value, std_error):
        with pytest.raises(DataError, match="finite"):
            PriceEstimate(value, std_error, 10)


class TestValuationInputs:
    """p_price rejects bad inputs instead of returning a NaN or silent value."""

    paths = 100.0 * np.exp(np.cumsum(np.full((4, 10), 0.001), axis=1))

    @pytest.mark.parametrize("s0", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("contract", [European(), Snowball()], ids=repr)
    def test_bad_s0(self, contract, s0):
        with pytest.raises(DataError, match="s0"):
            p_price(contract, self.paths, s0, 0.02, t_calendar=0.05)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate(self, r):
        with pytest.raises(DataError, match="rate"):
            p_price(European(), self.paths, 100.0, r)

    @pytest.mark.parametrize("t_calendar", [None, math.nan, math.inf])
    def test_snowball_calendar(self, t_calendar):
        with pytest.raises(DataError, match="t_calendar"):
            p_price(Snowball(), self.paths, 100.0, 0.02, t_calendar=t_calendar)


# one value per element, each at its own scale, so lists mix magnitudes
mixed_scale = st.builds(
    lambda m, e: m * 10.0**e,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-12, 12),
)


class TestMatchesReference:
    """The array forms equal the per-element reference loops bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(mixed_scale, min_size=1, max_size=400))
    @example([3.5])
    @example([0.1] * 7)
    @example([-1.0, -2.5, -1e-3, -7.25])
    @example([1e12, 1e-12, -3.0, 0.0, 5e5])
    # one deviation squares to 0x1.cc557d126e036p-7 ** 2, where the C
    # library's pow has been seen 1 ULP below the correctly rounded product
    @example([0.0, 0.0, 0.0, 3e-11] + [-0.032779312936024534] * 3)
    def test_estimate_bitwise(self, values):
        values = np.array(values, dtype=float)
        est = _estimate(values)
        mean, std_error = estimate_reference(values, CHUNK_PATHS)
        assert est.value.hex() == mean.hex()
        assert est.std_error.hex() == std_error.hex()
        assert est.n_paths == len(values)

    @pytest.mark.parametrize("n", [CHUNK_PATHS + 1, 2 * CHUNK_PATHS + 5])
    def test_estimate_over_several_chunks_bitwise(self, n):
        # the squares are taken about the first chunk's mean, which is not
        # the mean of all the values: a drift across chunks moves it
        rng = np.random.default_rng(n)
        values = rng.lognormal(0.0, 1.5, n) * 10.0 ** rng.integers(-3, 4, n) + np.linspace(0, 5, n)
        est = _estimate(values)
        mean, std_error = estimate_reference(values, CHUNK_PATHS)
        assert (est.value.hex(), est.std_error.hex()) == (mean.hex(), std_error.hex())
        assert est.std_error == pytest.approx(values.std(ddof=1) / math.sqrt(n), rel=1e-12)

    @pytest.mark.parametrize("n_paths", [257, CHUNK_PATHS + 3])
    @pytest.mark.parametrize("r, sigma", [(0.05, 0.2), (-0.01, 0.9), (0.03, 0.0)])
    def test_simulate_gbm_bitwise(self, n_paths, r, sigma):
        p = params(r=r, sigma=sigma, n_days=6, n_paths=n_paths, seed=11)
        got = simulate_gbm(p)
        want = simulate_gbm_reference(p, CHUNK_PATHS)
        assert got.shape == want.shape == (n_paths, 6)
        assert got.tobytes() == want.tobytes()


def _exact_sum(values, what="the sum"):
    """The exact total of the values, rounded once, as the estimator rounds it."""
    return _rounded(_exact_total(values, what), what, len(values))


# every finite float64 up to 1e300 in size, subnormals and both zeros included
wide = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False, allow_subnormal=True)


class TestExactSum:
    """The exact total, rounded once, has math.fsum's bits: the correctly
    rounded sum."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(wide, mixed_scale, st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300])),
        min_size=1, max_size=300), st.randoms(use_true_random=False))
    @example([5e-324], None)
    @example([-0.0], None)
    @example([-0.0, -0.0, 0.0], None)
    @example([1e300, 1.0, -1e300], None)
    @example([0.1] * 10 + [-1.0], None)
    @example([2.0**-1074, 2.0**-1074, -(2.0**-1022)], None)
    def test_equals_fsum(self, values, rnd):
        if rnd is not None:
            # cancellation: the negated values join in a shuffled order
            values = values + [-v for v in values[: rnd.randrange(len(values) + 1)]]
            rnd.shuffle(values)
        assert _exact_sum(np.array(values)).hex() == math.fsum(values).hex()

    def test_zero_sums_are_positive_zero(self):
        for values in ([-0.0], [-0.0, -0.0], [1.5, -1.5], [-5e-324, 5e-324]):
            assert _exact_sum(np.array(values)).hex() == (0.0).hex()

    def test_maximal_significands(self):
        # all-ones significands of one sign and exponent: the largest bucket sums
        values = np.full(70_001, np.nextafter(2.0, 0.0))
        values[-1] = 0.75
        assert _exact_sum(values).hex() == math.fsum(values.tolist()).hex()

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_sum_over_blocks(self, monkeypatch, block):
        # the 2**26-value blocks, shrunk so that a small array spans several
        monkeypatch.setattr(qp, "_BLOCK", block)
        values = np.random.default_rng(block).normal(size=50) * 10.0 ** np.arange(-25, 25)
        assert _exact_sum(values).hex() == math.fsum(values.tolist()).hex()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value(self, bad):
        with pytest.raises(DataError, match="estimate"):
            _exact_sum(np.array([1.0, bad, 2.0]))


class TestEstimateOverflow:
    """A mean or variance beyond float64 is a DataError, not a traceback."""

    def test_sum_beyond_float64(self):
        # math.fsum raised OverflowError here
        with pytest.raises(DataError, match="estimate: the mean overflows"):
            _estimate(np.full(20_000, 1e307))

    def test_squared_deviation_beyond_float64(self):
        # every value is finite: the error names the variance, and numpy's
        # overflow warning is not printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="estimate: the variance"):
                _estimate(np.array([1e300, -1e300, 1e300]))

    def test_sum_of_squares_beyond_float64(self):
        # each square is finite, their sum is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="estimate: the variance overflows"):
                _estimate(np.array([1e154, -1e154, 1e154, -1e154]))

    def test_opposite_infinities(self):
        # math.fsum raised ValueError on inf + -inf
        with pytest.raises(DataError, match="estimate"):
            _estimate(np.array([math.inf, -math.inf]))
