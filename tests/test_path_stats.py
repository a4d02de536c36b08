"""Two-sample metric oracles and aggregation/report format checks."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pqlab.path_stats as ps
from pqlab.errors import DataError, NumericError

finite_sample = st.lists(
    st.floats(-100, 100, allow_nan=False), min_size=2, max_size=40
).map(np.array)


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.array([0.3, -1.0, 2.5])
        stat, p = ps.ks_two_sample(a, a)
        assert stat == 0.0
        assert p == 1.0

    def test_disjoint_supports(self):
        stat, _ = ps.ks_two_sample([1.0, 2.0], [3.0, 4.0])
        assert stat == 1.0

    def test_interleaved_hand_ecdf(self):
        # gaps: 0.5 at x=1, 0 at x=2, 0.5 at x=3, 0 at x=4
        stat, _ = ps.ks_two_sample([1.0, 3.0], [2.0, 4.0])
        assert stat == 0.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            ps.ks_two_sample([], [1.0])

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=30), rng.normal(size=45)
        assert ps.ks_two_sample(a, b) == ps.ks_two_sample(b, a)

    def test_matches_reference_implementation(self):
        # statistic against scipy's ECDF scan; p against the limiting
        # Kolmogorov distribution (scipy's asymp mode substitutes the
        # finite-n kstwo law, a different approximation)
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.normal(size=int(rng.integers(5, 200)))
            b = rng.normal(loc=0.3, size=int(rng.integers(5, 200)))
            stat, p = ps.ks_two_sample(a, b)
            ref = scipy.stats.ks_2samp(a, b, method="asymp")
            assert abs(stat - ref.statistic) < 1e-14
            n_eff = a.size * b.size / (a.size + b.size)
            ref_p = scipy.stats.kstwobign.sf(np.sqrt(n_eff) * stat)
            assert abs(p - ref_p) < 1e-10

    def test_null_distribution_calibration(self):
        # same-distribution samples should rarely reject at the 5% level
        accepted = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=100)
            b = rng.normal(size=100)
            _, p = ps.ks_two_sample(a, b)
            accepted += p > 0.05
        assert accepted >= 95

    def test_nan_p_value_is_numeric_error(self):
        # a NaN must not pass as p = 0.0 (a clamp would map it there)
        a, b = [0.1, 0.5, 0.9], [0.2, 0.3]
        for bad in (math.nan, -0.5, 1.5):
            with mock.patch.object(ps, "_kolmogorov_sf", lambda x, bad=bad: bad):
                with pytest.raises(NumericError, match="p-value"):
                    ps.ks_two_sample(a, b)
                with pytest.raises(NumericError):
                    ps.compare_condition(a, b)

    @settings(deadline=None, max_examples=40)
    @given(finite_sample, finite_sample)
    def test_bounds(self, a, b):
        stat, p = ps.ks_two_sample(a, b)
        assert 0.0 <= stat <= 1.0
        assert 0.0 <= p <= 1.0

    @settings(deadline=None, max_examples=25)
    @given(finite_sample, st.integers(0, 2**31))
    def test_permutation_invariance(self, a, seed):
        b = np.random.default_rng(seed).permutation(a)
        stat_ab = ps.ks_two_sample(a, a)[0]
        stat_pb = ps.ks_two_sample(a, b)[0]
        assert stat_ab == stat_pb == 0.0


def same_bits(mine, ref) -> bool:
    return np.array_equal(np.asarray(mine, dtype=np.float64).view(np.int64),
                          np.asarray(ref, dtype=np.float64).view(np.int64))


class TestKolmogorovTail:
    """``_kolmogorov_sf`` against ``scipy.special.kolmogorov``, bit for bit."""

    def check(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        mine = [ps._kolmogorov_sf(float(x)) for x in xs]
        ref = scipy.special.kolmogorov(xs)
        bad = [float(x) for x, m, r in zip(xs, mine, ref) if not same_bits(m, r)]
        assert not bad, bad[:5]

    def test_nonpositive(self):
        self.check([-np.inf, -1.0, -1e-300, -0.0, 0.0])
        assert ps._kolmogorov_sf(0.0) == 1.0

    def test_both_sides_of_the_floor(self):
        floor = ps._KS_FLOOR
        assert 0.0406 < floor < 0.0407
        self.check([5e-324, 1e-200, 0.01, 0.0406, np.nextafter(floor, 0.0), floor,
                    np.nextafter(floor, 1.0), 0.0407, 0.05])

    def test_both_sides_of_the_cutover(self):
        xs = [0.82]
        for _ in range(20):
            xs = [np.nextafter(xs[0], 0.0)] + xs + [np.nextafter(xs[-1], 1.0)]
        assert xs[19] < ps._KS_CUTOVER < xs[21]
        self.check(xs + list(np.linspace(0.81, 0.83, 2001)))

    def test_where_u_underflows(self):
        # just above the floor u = exp(-pi^2 / (8 x^2)) is 0, and P with it
        xs = np.linspace(ps._KS_FLOOR, 0.041, 500)[1:]
        assert math.exp(-math.pi ** 2 / (8 * xs[0] ** 2)) == 0.0
        self.check(xs)

    def test_where_sf_underflows(self):
        xs = np.concatenate([np.linspace(18.0, 40.0, 2001), [1e10, 1e300, np.inf]])
        self.check(xs)
        assert ps._kolmogorov_sf(30.0) == 0.0 < ps._kolmogorov_sf(18.0)

    def test_dense_random_grid(self):
        rng = np.random.default_rng(11)
        self.check(np.concatenate([rng.uniform(0.0, 3.0, 20000),
                                   np.exp(rng.uniform(-4.0, 3.0, 20000))]))

    def test_nan_passes_through(self):
        assert math.isnan(ps._kolmogorov_sf(math.nan))


# samples with ties, signed zeros, constant runs and a wide range of scales
quantile_sample = st.integers(2, 500).flatmap(lambda n: hnp.arrays(
    np.float64, n, elements=st.one_of(
        st.sampled_from([-0.0, 0.0, 1.0, -2.5]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True))))


class TestLinearQuantiles:
    """``_linear_quantiles`` against ``np.quantile``, bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(quantile_sample, quantile_sample, st.booleans())
    def test_matches_np_quantile(self, x, y, constant):
        if constant:
            x = np.full(x.size, x[0])
        x = np.sort(x)
        m, n = min(x.size, y.size), x.size
        # the qq levels; midpoints between order statistics (gamma = 0.5, where
        # the lerp switches ends); and both ends (1.0 takes the last-index branch)
        levels = np.concatenate([(np.arange(m) + 0.5) / m,
                                 (np.arange(n - 1) + 0.5) / (n - 1), [0.0, 1.0]])
        mine = ps._linear_quantiles(x, levels)
        ref = np.quantile(x, levels)
        # np.quantile partitions a copy, which may reorder -0.0 and 0.0; the
        # sign of a zero is the one bit free to differ, and R^2 never sees it
        assert np.array_equal(mine, ref)
        assert same_bits(mine[ref != 0.0], ref[ref != 0.0])
        with mock.patch.object(ps, "_linear_quantiles", np.quantile):
            expected = ps.qq_r_squared(x, y)
        assert same_bits(ps.qq_r_squared(x, y), expected)


class TestWasserstein1:
    def test_identical(self):
        a = np.array([0.1, -0.4, 2.0])
        assert ps.wasserstein1(a, a) == 0.0

    def test_point_masses(self):
        assert ps.wasserstein1([0.0], [1.0]) == 1.0

    def test_sorted_matching_hand(self):
        assert ps.wasserstein1([0.0, 1.0], [0.5, 1.5]) == 0.5

    def test_translation_equals_shift(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=50)
        assert abs(ps.wasserstein1(a, a + 0.3) - 0.3) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=20), rng.normal(size=31)
        assert abs(ps.wasserstein1(a, b) - ps.wasserstein1(b, a)) < 1e-15

    def test_matches_reference_unequal_sizes(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = rng.normal(size=int(rng.integers(3, 60)))
            b = rng.normal(size=int(rng.integers(3, 60)))
            mine = ps.wasserstein1(a, b)
            ref = scipy.stats.wasserstein_distance(a, b)
            assert abs(mine - ref) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(finite_sample, finite_sample, finite_sample)
    def test_triangle_inequality(self, a, b, c):
        ab = ps.wasserstein1(a, b)
        bc = ps.wasserstein1(b, c)
        ac = ps.wasserstein1(a, c)
        assert ac <= ab + bc + 1e-9

    @settings(deadline=None, max_examples=30)
    @given(finite_sample)
    def test_nonnegative_and_zero_on_self(self, a):
        assert ps.wasserstein1(a, a) == 0.0


class TestQqRSquared:
    def test_identical(self):
        a = np.array([3.0, -1.0, 0.5, 2.0])
        assert ps.qq_r_squared(a, a) == 1.0

    def test_affine_map(self):
        a = np.random.default_rng(5).normal(size=40)
        assert abs(ps.qq_r_squared(a, 2.0 * a + 3.0) - 1.0) < 1e-12

    def test_matches_polyfit_oracle(self):
        a = np.array([0.0, 1.0, 2.0, 4.0])
        b = np.array([0.1, 0.8, 2.3, 3.6])
        qa, qb = np.sort(a), np.sort(b)
        coeffs = np.polyfit(qa, qb, 1)
        fitted = np.polyval(coeffs, qa)
        ss_res = float(np.sum((qb - fitted) ** 2))
        ss_tot = float(np.sum((qb - qb.mean()) ** 2))
        expected = 1.0 - ss_res / ss_tot
        assert abs(ps.qq_r_squared(a, b) - expected) < 1e-12

    def test_constant_sample_not_applicable(self):
        assert np.isnan(ps.qq_r_squared(np.ones(5), np.arange(5.0)))

    def test_same_distribution_high_r2(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=500)
        b = rng.normal(size=377)  # unequal sizes take the quantile branch
        assert ps.qq_r_squared(a, b) > 0.95

    def test_short_sample_rejected(self):
        with pytest.raises(DataError):
            ps.qq_r_squared([1.0], [1.0, 2.0])

    @settings(deadline=None, max_examples=30)
    @given(finite_sample, finite_sample)
    def test_at_most_one(self, a, b):
        r2 = ps.qq_r_squared(a, b)
        assert np.isnan(r2) or r2 <= 1.0 + 1e-12


class TestCompareCondition:
    def test_identical_sets(self):
        returns = np.random.default_rng(7).normal(scale=0.01, size=(5, 20))
        row = ps.compare_condition(returns, returns.copy())
        assert row.mean_diff == 0.0
        assert row.vol_diff == 0.0
        assert row.kurt_diff == 0.0
        assert row.ks_stat == 0.0
        assert row.ks_pvalue == 1.0
        assert row.wasserstein == 0.0
        assert row.qq_r2 == 1.0

    def test_shifted_generated(self):
        real = np.random.default_rng(8).normal(scale=0.01, size=(4, 30))
        row = ps.compare_condition(real, real + 0.01)
        assert abs(row.mean_diff - 0.01) < 1e-12
        assert row.vol_diff < 1e-12
        assert row.kurt_diff < 1e-9

    def test_same_process_seeded(self):
        # two independent draws from the same daily-return distribution
        rng = np.random.default_rng(9)
        real = rng.normal(scale=0.0126, size=1000)
        gen = rng.normal(scale=0.0126, size=1000)
        row = ps.compare_condition(real, gen)
        assert row.wasserstein < 0.005
        assert row.ks_pvalue > 0.01

    def test_list_of_sequences_pooled(self):
        parts = [np.array([0.1, 0.2]), np.array([0.3, -0.1, 0.0])]
        flat = np.array([0.1, 0.2, 0.3, -0.1, 0.0])
        row_parts = ps.compare_condition(parts, flat)
        assert row_parts.ks_stat == 0.0
        assert row_parts.wasserstein == 0.0

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            ps.compare_condition([np.array([0.1])], np.array([0.1, 0.2]))


class TestReportAggregation:
    def build_rows(self):
        return (
            ps.MetricRow(0.01, 0.1, 0.5, 0.2, 0.8, 0.004, 0.9),
            ps.MetricRow(0.03, 0.3, 1.5, 0.4, 0.4, 0.008, 0.7),
        )

    def test_mean_and_std(self):
        report = ps.aggregate_report(self.build_rows())
        assert abs(report.mean("mean_diff") - 0.02) < 1e-15
        assert abs(report.std("mean_diff") - 0.01) < 1e-15
        assert abs(report.mean("qq_r2") - 0.8) < 1e-15

    def test_nan_not_applicable_ignored(self):
        rows = self.build_rows() + (
            ps.MetricRow(0.02, 0.2, 1.0, 0.3, 0.6, 0.006, float("nan")),
        )
        report = ps.aggregate_report(rows)
        assert abs(report.mean("qq_r2") - 0.8) < 1e-15

    def test_unknown_metric_rejected(self):
        report = ps.aggregate_report(self.build_rows())
        with pytest.raises(DataError):
            report.mean("sharpe")

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            ps.aggregate_report(())

    def test_csv_format(self, tmp_path):
        report = ps.aggregate_report(self.build_rows())
        target = tmp_path / "table.csv"
        ps.write_table_csv(target, report)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "metric,mean,std"
        assert len(lines) == 1 + len(ps.METRICS)
        first = lines[1].split(",")
        assert first[0] == "mean_diff"
        assert float(first[1]) == report.mean("mean_diff")
        assert [line.split(",")[0] for line in lines[1:]] == list(ps.METRICS)
