import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    black_scholes_call,
    cashflow_schedule,
    discount_value,
    estimate_reference,
    simulate_gbm_reference,
)

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
        writeable = []
        real = qp.discounted_values

        def spy(contract, paths, *args):
            writeable.append(paths.flags.writeable)
            with pytest.raises(ValueError):
                paths[0, 0] = 0.0
            return real(contract, paths, *args)

        monkeypatch.setattr(qp, "discounted_values", spy)
        price_all(BOOK, params(n_paths=CHUNK_PATHS + 1, n_days=5), t_calendar=0.03)
        assert writeable == [False] * (2 * len(BOOK))


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
        q_est = price(Asian(), p)
        p_est = p_price(Asian(), simulate_gbm(p), p.s0, p.r)
        assert p_est.value == q_est.value
        assert p_est.std_error == q_est.std_error

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
        mean, std_error = estimate_reference(values)
        assert est.value.hex() == mean.hex()
        assert est.std_error.hex() == std_error.hex()
        assert est.n_paths == len(values)

    @pytest.mark.parametrize("n_paths", [257, CHUNK_PATHS + 3])
    @pytest.mark.parametrize("r, sigma", [(0.05, 0.2), (-0.01, 0.9), (0.03, 0.0)])
    def test_simulate_gbm_bitwise(self, n_paths, r, sigma):
        p = params(r=r, sigma=sigma, n_days=6, n_paths=n_paths, seed=11)
        got = simulate_gbm(p)
        want = simulate_gbm_reference(p, CHUNK_PATHS)
        assert got.shape == want.shape == (n_paths, 6)
        assert got.tobytes() == want.tobytes()
