import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cashflow_schedule, classify_snowball, discount_value, snowball_payoff

from pqlab.errors import ConfigError, DataError
from pqlab.payoffs import (
    Accumulator,
    Asian,
    CashFlowSchedule,
    European,
    Lookback,
    Snowball,
    contract_cashflows,
    linear_calendar_fraction,
)

paths = st.lists(st.floats(1.0, 500.0), min_size=1, max_size=60).map(np.array)


def payoff(contract, path, s0=100.0):
    """The single terminal amount of a European, lookback or Asian call."""
    cf = contract_cashflows(contract, path, s0)
    assert list(cf.days) == [len(path)] and not cf.terminated_early
    return cf.amounts[0]


def european_payoff(path, s0):
    return payoff(European(), path, s0)


def lookback_payoff(path, s0):
    return payoff(Lookback(), path, s0)


def asian_payoff(path, s0):
    return payoff(Asian(), path, s0)


def accumulator_cashflows(path, s0, spec):
    return contract_cashflows(spec, path, s0)


def snowball(path, s0, spec, cal):
    """(amount, termination_day) of one snowball through the product path."""
    cf = contract_cashflows(spec, path, s0, cal)
    assert list(cf.days) == [cf.termination_day]
    return cf.amounts[0], cf.termination_day


class TestEuropean:
    def test_in_the_money(self):
        assert european_payoff(np.array([105.0, 110.0]), 100.0) == 10.0

    def test_out_of_the_money(self):
        assert european_payoff(np.array([90.0]), 100.0) == 0.0

    def test_at_the_money_boundary(self):
        assert european_payoff(np.array([100.0]), 100.0) == 0.0

    def test_empty_path_rejected(self):
        with pytest.raises(DataError):
            european_payoff(np.array([]), 100.0)


class TestLookback:
    def test_max_settlement(self):
        assert lookback_payoff(np.array([100.0, 120.0, 90.0]), 100.0) == 20.0

    def test_monotone_down_path(self):
        assert lookback_payoff(np.array([99.0, 95.0, 80.0]), 100.0) == 0.0

    def test_max_exactly_at_strike(self):
        assert lookback_payoff(np.array([100.0, 99.0]), 100.0) == 0.0

    @given(paths)
    def test_dominates_european(self, path):
        assert lookback_payoff(path, 100.0) >= european_payoff(path, 100.0)


class TestAsian:
    def test_average_strike(self):
        assert asian_payoff(np.array([100.0, 110.0, 120.0]), 100.0) == 10.0

    def test_constant_at_strike(self):
        assert asian_payoff(np.array([100.0, 100.0]), 100.0) == 0.0

    def test_below_strike(self):
        assert asian_payoff(np.array([90.0, 90.0, 90.0]), 100.0) == 0.0


class TestMonotonicity:
    @given(paths, st.floats(0.1, 5.0))
    def test_pointwise_increase_never_hurts(self, path, bump):
        higher = path + bump
        assert european_payoff(higher, 100.0) >= european_payoff(path, 100.0)
        assert lookback_payoff(higher, 100.0) >= lookback_payoff(path, 100.0)
        assert asian_payoff(higher, 100.0) >= asian_payoff(path, 100.0)

    @given(paths, st.integers(0, 59), st.floats(0.1, 5.0))
    def test_asian_nondecreasing_in_each_close(self, path, idx, bump):
        idx = idx % len(path)
        higher = path.copy()
        higher[idx] += bump
        assert asian_payoff(higher, 100.0) >= asian_payoff(path, 100.0)


class TestAccumulator:
    def test_hand_traced_knockout(self):
        spec = Accumulator(discount=0.9, ko_ratio=1.2)
        cf = accumulator_cashflows(np.array([95.0, 85.0, 121.0]), 100.0, spec)
        assert np.allclose(cf.amounts, [5.0, -10.0, 31.0])
        assert list(cf.days) == [1, 2, 3]
        assert cf.termination_day == 3
        assert cf.terminated_early

    def test_no_knockout_all_positive(self):
        spec = Accumulator(discount=0.9, ko_ratio=1.2)
        path = np.array([95.0, 100.0, 110.0])
        cf = accumulator_cashflows(path, 100.0, spec)
        assert not cf.terminated_early
        assert cf.termination_day == 3
        assert np.all(cf.amounts > 0)

    def test_immediate_knockout(self):
        spec = Accumulator(discount=0.9, ko_ratio=1.2)
        cf = accumulator_cashflows(np.array([125.0, 90.0]), 100.0, spec)
        assert len(cf.amounts) == 1
        assert cf.terminated_early
        assert cf.termination_day == 1

    @given(paths)
    def test_sign_and_units_match_rules(self, path):
        spec = Accumulator(discount=0.9, ko_ratio=1.2, daily_units=1.0)
        cf = accumulator_cashflows(path, 100.0, spec)
        k_d = 90.0
        for day, amount in zip(cf.days, cf.amounts):
            s = path[day - 1]
            q = 2.0 if s < k_d else 1.0
            assert amount == q * (s - k_d)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Accumulator(discount=1.1)
        with pytest.raises(ConfigError):
            Accumulator(ko_ratio=0.9)


class TestSnowball:
    def spec(self, **kw):
        base = dict(ko_ratio=1.05, ki_ratio=0.9, coupon_pa=0.15, notional=1e6)
        base.update(kw)
        return Snowball(**base)

    def test_full_coupon_thirty_day_horizon(self):
        # quiet path between the barriers for a 30-calendar-day note
        path = np.full(20, 100.0)
        cal = linear_calendar_fraction(20, 30.0 / 365.0)
        amount, day = snowball(path, 100.0, self.spec(), cal)
        assert amount == pytest.approx(12_328.77, abs=0.01)
        assert day == 20

    def test_knock_in_loss(self):
        path = np.full(20, 95.0)
        path[4] = 85.0  # breaches KI
        path[-1] = 80.0
        cal = linear_calendar_fraction(20, 30.0 / 365.0)
        amount, day = snowball(path, 100.0, self.spec(), cal)
        assert amount == pytest.approx(-200_000.0, abs=1e-6)
        assert day == 20

    def test_knock_in_recovered_to_par(self):
        path = np.full(20, 95.0)
        path[4] = 85.0
        path[-1] = 100.0
        cal = linear_calendar_fraction(20, 30.0 / 365.0)
        amount, _ = snowball(path, 100.0, self.spec(), cal)
        assert amount == pytest.approx(0.0, abs=1e-9)

    def test_knockout_on_observation_day(self):
        path = np.full(20, 100.0)
        path[4] = 106.0  # day 5, an observation day
        cal = linear_calendar_fraction(20, 30.0 / 365.0)
        amount, day = snowball(path, 100.0, self.spec(), cal)
        assert day == 5
        assert amount == pytest.approx(1e6 * 0.15 * cal[4], rel=1e-12)

    def test_above_barrier_between_observations_no_ko(self):
        path = np.full(20, 100.0)
        path[5] = 110.0  # day 6 is not an observation day
        cal = linear_calendar_fraction(20, 30.0 / 365.0)
        amount, day = snowball(path, 100.0, self.spec(), cal)
        assert day == 20
        assert amount == pytest.approx(1e6 * 0.15 * cal[-1], rel=1e-12)

    def test_final_day_is_observation(self):
        path = np.full(7, 100.0)
        path[-1] = 106.0
        cal = linear_calendar_fraction(7, 30.0 / 365.0)
        amount, day = snowball(path, 100.0, self.spec(), cal)
        assert day == 7
        assert amount == pytest.approx(1e6 * 0.15 * cal[-1], rel=1e-12)

    def test_loss_floored_at_notional(self):
        path = np.full(10, 50.0)
        path[-1] = 1e-9
        cal = linear_calendar_fraction(10, 30.0 / 365.0)
        amount, _ = snowball(path, 100.0, self.spec(), cal)
        assert amount >= -1e6

    @given(paths)
    def test_outcome_partition(self, path):
        spec = self.spec()
        tag = classify_snowball(path, 100.0, spec)
        assert tag in {"ko", "ki_loss", "ki_par", "full_coupon"}
        cal = linear_calendar_fraction(len(path), 30.0 / 365.0)
        amount, day = snowball(path, 100.0, spec, cal)
        if tag == "ko":
            assert amount >= 0.0
        elif tag == "ki_loss":
            assert -1e6 <= amount < 0.0 and day == len(path)
        elif tag == "ki_par":
            assert amount == 0.0
        else:
            assert amount == pytest.approx(1e6 * 0.15 * cal[-1], rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Snowball(ko_ratio=0.99)
        with pytest.raises(ConfigError):
            Snowball(ki_ratio=1.2)


class TestDiscountValue:
    """Hand cases pinning ``oracles.discount_value``, the pricer tests' reference."""

    def test_zero_rate_plain_sum(self):
        cf = CashFlowSchedule(np.array([1, 2]), np.array([3.0, 4.0]), 2, False)
        assert discount_value(cf, 0.0) == 7.0

    def test_one_year_discount(self):
        cf = CashFlowSchedule(np.array([252]), np.array([100.0]), 252, False)
        assert discount_value(cf, 0.05) == pytest.approx(95.1229, abs=1e-4)

    def test_empty_schedule(self):
        cf = CashFlowSchedule(np.array([], dtype=int), np.array([]), 0, False)
        assert discount_value(cf, 0.05) == 0.0


class TestContractCashflows:
    def test_terminal_products_single_flow(self):
        path = np.array([100.0, 120.0, 90.0])
        for contract, expected in [
            (European(), 0.0),
            (Lookback(), 20.0),
            (Asian(), pytest.approx(10.0 / 3.0, rel=1e-12)),
        ]:
            cf = contract_cashflows(contract, path, 100.0)
            assert list(cf.days) == [3]
            assert cf.amounts[0] == expected

    def test_snowball_requires_cal_frac(self):
        with pytest.raises(DataError, match="t_calendar"):
            contract_cashflows(Snowball(), np.array([100.0]), 100.0)

    def test_snowball_schedule_matches_payoff(self):
        spec = Snowball(ko_ratio=1.05, ki_ratio=0.9, coupon_pa=0.15)
        path = np.full(20, 100.0)
        path[9] = 106.0
        cal = linear_calendar_fraction(20, 30.0 / 365.0)
        cf = contract_cashflows(spec, path, 100.0, cal)
        amount, day = snowball_payoff(path, 100.0, spec, cal)
        assert cf.days[0] == day == cf.termination_day
        assert cf.amounts[0] == amount
        assert cf.terminated_early


# closes from a continuum mixed with every barrier of PRODUCTS at s0 = 100
# (K_d 90, accumulator KO 120, snowball KO 105, KI 90 and 80), so that
# closes land exactly on a barrier
BARRIERS = (80.0, 90.0, 100.0, 105.0, 120.0)
barrier_paths = st.lists(
    st.one_of(st.floats(1.0, 500.0), st.sampled_from(BARRIERS)), min_size=1, max_size=40
).map(np.array)

PRODUCTS = (
    European(),
    Lookback(),
    Asian(strike_ratio=0.95),
    Accumulator(discount=0.9, ko_ratio=1.2),
    Snowball(ko_ratio=1.05, ki_ratio=0.9, coupon_pa=0.15),
    Snowball(ko_ratio=1.05, ki_ratio=0.8, ko_obs_stride=1),
)


class TestMatchesOracle:
    """The product schedule equals the per-path trace in oracles bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(barrier_paths, st.floats(0.01, 3.0))
    @example(np.array([95.0, 100.0, 120.0]), 30.0 / 365.0)  # final-day accumulator KO
    @example(np.array([100.0, 100.0, 100.0, 100.0, 105.0, 90.0]), 0.1)  # KO on the barrier
    @example(np.array([90.0, 80.0, 100.0]), 0.1)  # closes on both KI barriers
    @example(np.array([120.0]), 0.004)  # one-day path, KO on day 1
    def test_schedule_bitwise(self, path, t_cal):
        cal = linear_calendar_fraction(len(path), t_cal)
        for contract in PRODUCTS:
            got = contract_cashflows(contract, path, 100.0, cal)
            want = cashflow_schedule(contract, path, 100.0, cal)
            assert got.days.tolist() == want.days.tolist(), contract
            assert [a.hex() for a in got.amounts.tolist()] == [
                a.hex() for a in want.amounts.tolist()
            ], contract
            assert got.termination_day == want.termination_day, contract
            assert got.terminated_early == want.terminated_early, contract

    def test_final_day_accumulator_knockout_is_early(self):
        cf = contract_cashflows(Accumulator(), np.array([95.0, 100.0, 120.0]), 100.0)
        assert cf.termination_day == 3
        assert cf.terminated_early

    def test_final_day_snowball_knockout_is_not_early(self):
        path = np.array([100.0, 100.0, 106.0])
        cf = contract_cashflows(Snowball(), path, 100.0, linear_calendar_fraction(3, 0.1))
        assert cf.termination_day == 3
        assert not cf.terminated_early


class TestKernelEntry:
    """Every contract's kernel entry rejects bad inputs as DataError."""

    @pytest.mark.parametrize("contract", PRODUCTS, ids=repr)
    @pytest.mark.parametrize("s0", [np.nan, np.inf, 0.0, -100.0])
    def test_bad_s0(self, contract, s0):
        with pytest.raises(DataError, match="s0"):
            contract.cashflows(np.full((2, 3), 100.0), s0, 0.1)

    @pytest.mark.parametrize("contract", PRODUCTS, ids=repr)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_paths(self, contract, value):
        paths = np.full((2, 3), 100.0)
        paths[1, 2] = value
        with pytest.raises(DataError, match="finite"):
            contract.cashflows(paths, 100.0, 0.1)

    @pytest.mark.parametrize("calendar", [np.nan, np.inf, [0.1, np.nan, 0.3], [0.1, 0.2]])
    def test_bad_snowball_calendar(self, calendar):
        with pytest.raises(DataError):
            Snowball().cashflows(np.full((2, 3), 100.0), 100.0, calendar)

    def test_calendar_ignored_where_not_needed(self):
        flows = European().cashflows(np.full((2, 3), 110.0), 100.0, np.nan)
        assert flows.amounts.tolist() == [[10.0], [10.0]]

    def test_scalar_calendar_is_linear_clock(self):
        path = np.full(20, 100.0)
        by_maturity = Snowball().cashflows(path[None, :], 100.0, 30.0 / 365.0)
        by_fractions = Snowball().cashflows(
            path[None, :], 100.0, linear_calendar_fraction(20, 30.0 / 365.0)
        )
        assert by_maturity.amounts.tobytes() == by_fractions.amounts.tobytes()
