"""Loss-term identities, gradient checks, and composite-loss invariants."""

import dataclasses
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqlab.objectives as obj
from pqlab.errors import ConfigError, DataError, NumericError


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a 1-D array."""
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        up[i] += h
        dn = x.copy()
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def assert_grad_close(analytic, numeric, tol=1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < tol, f"max rel err {rel.max():.3e}"


def row(x):
    """A sequence as the one-row (1, n) float64 block the kernels take."""
    return np.asarray(x, dtype=np.float64)[None]


def short_row_loss(n):
    """total_loss on one all-valid random row of length n, past warmup, and
    the messages of the warnings it raised."""
    x = np.random.default_rng(n).normal(size=(4, 1, n))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bd = obj.total_loss(*x, np.ones((1, n), dtype=bool), step=1, total_steps=1)
    return bd, [str(w.message) for w in caught]


class TestMaskedMse:
    def test_zero_at_equality(self):
        y = np.array([0.3, -0.1, 2.0])
        assert obj._masked_mse_vg(y, y, np.ones(3, dtype=bool))[0] == 0.0

    def test_masked_entry_ignored(self):
        value, _ = obj._masked_mse_vg(np.array([1.0, 9.0]), np.zeros(2), [True, False])
        assert value == 1.0

    def test_full_mask_hand_sum(self):
        # (1 + 4 + 9) / 3
        value, _ = obj._masked_mse_vg(np.array([1.0, 2.0, 3.0]), np.zeros(3), [True] * 3)
        assert abs(value - 14.0 / 3.0) < 1e-15

    def test_empty_mask_rejected(self):
        with pytest.raises(DataError):
            obj._masked_mse_vg(np.ones(1), np.ones(1), [False])

    def test_shape_mismatch_rejected(self):
        # total_loss, the kernel's one caller, checks the shapes
        y = np.ones((1, 2))
        with pytest.raises(DataError, match="mask shape"):
            obj.total_loss(y, y, y, y, np.ones((1, 1), dtype=bool), step=0, total_steps=1)

    def test_nan_in_masked_slot_is_inert(self):
        value, _ = obj._masked_mse_vg(np.array([1.0, np.nan]), np.array([0.0, np.nan]),
                                      [True, False])
        assert value == 1.0

    def test_batched_2d(self):
        y = np.zeros((2, 2))
        y_hat = np.array([[1.0, 5.0], [2.0, 5.0]])
        mask = np.array([[True, False], [True, False]])
        assert obj._masked_mse_vg(y, y_hat, mask)[0] == 2.5


class TestJumpLoss:
    def test_zero_at_equality(self):
        p = row([0.1, 0.5, -0.2])
        assert obj._jump(p, p)[0][0] == 0.0

    def test_single_pair(self):
        assert obj._jump(row([0.0, 2.0]), row([0.0, 1.0]))[0][0] == 1.0

    def test_hand_trace(self):
        # diffs (1, 2) vs (1, 0) -> mean(0, 2) = 1
        assert obj._jump(row([0.0, 1.0, 3.0]), row([0.0, 1.0, 1.0]))[0][0] == 1.0

    def test_short_sequence_warns_and_returns_zero(self):
        values, grad, defined = obj._jump(row([1.0]), row([2.0]))
        assert values[0] == 0.0 and not grad.any() and not defined[0]
        bd, messages = short_row_loss(1)
        assert bd.jump == 0.0 and ("jump", 1) in bd.skipped
        assert "jump term undefined for 1 sequence(s); contributed 0" in messages

    def test_mask_prefix(self):
        # the masked-out position is never read: the jump field of a
        # one-row total_loss equals the hand trace above
        x0p, x0t = row([0.0, 1.0, 3.0, 99.0]), row([0.0, 1.0, 1.0, -5.0])
        mask = np.array([[True, True, True, False]])
        bd = obj.total_loss(x0p, x0p, x0p, x0t, mask, step=0, total_steps=1,
                            config=obj.LossConfig(vol_window=3))
        assert bd.jump == 1.0

    def test_non_prefix_mask_rejected(self):
        p = row([0.0, 1.0, 2.0])
        with pytest.raises(DataError, match="contiguous prefix"):
            obj.total_loss(p, p, p, p, np.array([[True, False, True]]), step=0,
                           total_steps=1)


class TestVolClusteringLoss:
    def test_zero_at_equality(self):
        rng = np.random.default_rng(3)
        p = row(rng.normal(size=12))
        assert obj._vol_clustering(p, p, 5, 1)[0][0] == 0.0

    def test_quadratic_branch(self):
        # single window: population stds 0.2 vs 0.5, |d| = 0.3 < 1
        value = obj._vol_clustering(row([0.0, 0.4]), row([0.0, 1.0]), 2, 1)[0][0]
        assert abs(value - 0.045) < 1e-9

    def test_linear_branch(self):
        # stds 0.2 vs 2.2, |d| = 2.0 -> 2.0 - 0.5
        value = obj._vol_clustering(row([0.0, 0.4]), row([0.0, 4.4]), 2, 1)[0][0]
        assert abs(value - 1.5) < 1e-9

    def test_window_too_large_warns(self):
        values, grad, defined = obj._vol_clustering(row([1.0, 2.0]), row([3.0, 0.0]), 5, 1)
        assert values[0] == 0.0 and not grad.any() and not defined[0]
        bd, messages = short_row_loss(2)
        assert bd.vol == 0.0 and ("vol", 1) in bd.skipped
        assert "vol term undefined for 1 sequence(s); contributed 0" in messages

    def test_bad_window_rejected(self):
        # the [loss] section is the only way a window or stride reaches the kernel
        with pytest.raises(ConfigError, match="vol_window"):
            obj.LossConfig(vol_window=0)
        with pytest.raises(ConfigError, match="vol_stride"):
            obj.LossConfig(vol_stride=0)


class TestGlobalVolLoss:
    def test_zero_at_equality(self):
        p = row([0.4, -0.2, 0.9])
        assert obj._global_vol(p, p)[0][0] == 0.0

    def test_hand_stds(self):
        # population stds 0.3 vs 0.1
        value = obj._global_vol(row([0.0, 0.6]), row([0.0, 0.2]))[0][0]
        assert abs(value - 0.2) < 1e-9

    def test_constant_pred_gives_true_std(self):
        true = row([0.0, 1.0, 0.0, 1.0])  # population std 0.5
        value = obj._global_vol(row(np.ones(4)), true)[0][0]
        assert abs(value - 0.5) < 1e-5

    def test_degenerate_length_warns(self):
        values, grad, defined = obj._global_vol(row([1.0]), row([2.0]))
        assert values[0] == 0.0 and not grad.any() and not defined[0]
        bd, messages = short_row_loss(1)
        assert bd.gvol == 0.0 and ("gvol", 1) in bd.skipped
        assert "gvol term undefined for 1 sequence(s); contributed 0" in messages


class TestKurtosisAndTail:
    def test_alternating_sequence(self):
        # z = x exactly, E[z^4] = 1 -> excess -2
        assert obj.kurtosis([-1.0, 1.0, -1.0, 1.0]) == -2.0

    def test_standard_normal_near_zero(self):
        z = np.random.default_rng(7).standard_normal(100_000)
        assert abs(obj.kurtosis(z)) < 0.1

    def test_scale_invariance(self):
        x = np.random.default_rng(11).standard_normal(50)
        assert abs(obj.kurtosis(x) - obj.kurtosis(10.0 * x + 3.0)) < 1e-9

    def test_zero_std_rejected(self):
        with pytest.raises(NumericError):
            obj.kurtosis(np.full(8, 2.5))

    def test_tail_zero_at_equal_kurtosis(self):
        x = row([-1.0, 1.0, -1.0, 1.0])
        assert obj._tail(x, -x)[0][0] == 0.0

    def test_tail_hand_value(self):
        pred = row([-1.0, 1.0, -1.0, 1.0])  # K = -2
        # true: m2 = 27/4, m4 = 425.25/4, m4/m2^2 = 7/3 -> K = -2/3
        true = row([0.0, 0.0, 0.0, 6.0])
        assert abs(obj._tail(pred, true)[0][0] - 16.0 / 9.0) < 1e-9


class TestDriftLoss:
    def test_level_shift_invariant(self):
        # dyadic values keep the telescoped endpoints exact under the shift
        p = row([0.125, 0.625, -0.25, 0.375])
        assert obj._drift(p + 5.0, p)[0][0] == 0.0

    def test_hand_values(self):
        assert abs(obj._drift(row([0.0, 0.5]), row([0.0, 0.2]))[0][0] - 0.09) < 1e-12
        assert abs(obj._drift(row([0.0, 0.2]), row([0.0, -0.2]))[0][0] - 0.16) < 1e-12

    def test_interior_values_irrelevant(self):
        a = obj._drift(row([0.0, 99.0, 0.5]), row([0.0, 0.0, 0.2]))[0][0]
        b = obj._drift(row([0.0, -99.0, 0.5]), row([0.0, 1.0, 0.2]))[0][0]
        assert a == b


class TestPinballLoss:
    def test_zero_at_equality(self):
        assert obj.pinball_loss([1.0, 2.0], [1.0, 2.0], 0.5) == 0.0

    def test_under_prediction_high_quantile(self):
        assert abs(obj.pinball_loss(1.0, 0.0, 0.99) - 0.99) < 1e-15

    def test_over_prediction_low_quantile(self):
        assert abs(obj.pinball_loss(0.0, 1.0, 0.01) - 0.99) < 1e-15

    def test_over_prediction_high_quantile(self):
        assert abs(obj.pinball_loss(1.0, 2.0, 0.99) - 0.01) < 1e-15

    def test_bad_quantile_rejected(self):
        for q in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                obj.pinball_loss([1.0], [1.0], q)

    @given(st.floats(-50, 50), st.floats(-50, 50),
           st.floats(0.01, 0.99))
    def test_nonnegative(self, y, y_hat, q):
        assert obj.pinball_loss(y, y_hat, q) >= 0.0


class TestSpectralLoss:
    def test_zero_at_equality(self):
        p = row(np.random.default_rng(5).normal(size=16))
        assert obj._spectral(p, p)[0][0] == 0.0

    def test_constant_sequence_is_dc_only(self):
        _, mag, peak, defined = obj._spectrum(row(np.full(8, 3.0)))
        assert defined[0]
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(mag[0] / peak[0], expected, atol=1e-12)

    def test_mismatched_sinusoids_positive(self):
        n = 32
        ticks = np.arange(n)
        a = np.sin(2.0 * np.pi * 3.0 * ticks / n)
        b = np.sin(2.0 * np.pi * 7.0 * ticks / n)
        assert obj._spectral(row(a), row(b))[0][0] > 0.01

    def test_amplitude_invariance(self):
        # max-normalization removes overall scale
        p = row(np.random.default_rng(9).normal(size=16))
        t = row(np.random.default_rng(10).normal(size=16))
        assert abs(obj._spectral(3.0 * p, t)[0][0] - obj._spectral(p, t)[0][0]) < 1e-12

    def test_all_zero_rejected(self):
        # an all-zero side has no peak to normalize by: the row is flagged
        # undefined and contributes neither a value nor a gradient
        for p, t in ((np.zeros(8), np.ones(8)), (np.ones(8), np.zeros(8))):
            values, grad, defined = obj._spectral(row(p), row(t))
            assert not defined[0]
            assert values[0] == 0.0 and not grad.any()


class TestGradients:
    """Analytic gradients of every term against central differences."""

    def setup_method(self):
        rng = np.random.default_rng(123)
        self.p = rng.normal(scale=0.8, size=14)
        self.t = rng.normal(scale=0.5, size=14)

    def check(self, kernel, f=None):
        # kernels are batched: evaluate on the single row (1, n)
        if f is None:
            def f(p, t):
                return kernel(p[None], t[None])[0][0]
        _, analytic, *_ = kernel(self.p[None].copy(), self.t[None].copy())
        numeric = fd_grad(lambda x: f(x, self.t), self.p.copy())
        assert_grad_close(analytic[0], numeric)

    def test_masked_mse_grad(self):
        mask = np.ones(14, dtype=bool)
        mask[10:] = False
        _, analytic = obj._masked_mse_vg(self.t, self.p, mask)
        numeric = fd_grad(lambda x: obj._masked_mse_vg(self.t, x, mask)[0], self.p.copy())
        assert_grad_close(analytic, numeric)

    def test_jump_grad(self):
        self.check(obj._jump)

    def test_vol_clustering_grad(self):
        self.check(lambda p, t: obj._vol_clustering(p, t, 5, 1))

    def test_global_vol_grad(self):
        self.check(obj._global_vol)

    def test_tail_grad(self):
        self.check(obj._tail)

    def test_drift_grad(self):
        self.check(obj._drift)

    def test_pinball_pair_grad(self):
        def f(p, t):
            return 0.5 * (obj.pinball_loss(t, p, 0.01) + obj.pinball_loss(t, p, 0.99))

        self.check(obj._pinball_pair, f)

    def test_spectral_grad(self):
        self.check(obj._spectral)


class TestLambdaSchedule:
    def test_zero_at_step_zero(self):
        assert obj.lambda_scale(0, 1000, 0.1) == 0.0

    def test_saturates_at_warmup_end(self):
        assert obj.lambda_scale(100, 1000, 0.1) == 1.0
        assert obj.lambda_scale(5000, 1000, 0.1) == 1.0

    def test_midpoint(self):
        assert abs(obj.lambda_scale(50, 1000, 0.1) - 0.5) < 1e-15

    def test_nondecreasing_and_continuous(self):
        prev = obj.lambda_scale(0, 1000, 0.2)
        for step in range(1, 301):
            s = obj.lambda_scale(step, 1000, 0.2)
            assert s >= prev
            assert s - prev <= 1.0 / 200.0 + 1e-12
            prev = s

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigError):
            obj.lambda_scale(-1, 100, 0.1)
        with pytest.raises(ConfigError):
            obj.lambda_scale(0, 0, 0.1)
        with pytest.raises(ConfigError):
            obj.lambda_scale(0, 100, 0.0)

    def test_weights_validation(self):
        with pytest.raises(ConfigError):
            obj.LossConfig(lambda_jump=-0.1)
        with pytest.raises(ConfigError):
            obj.LossConfig(warmup_fraction=1.5)


def random_batch(seed, batch=3, length=16):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=(batch, length))
    target = rng.normal(size=(batch, length))
    x0_pred = rng.normal(scale=0.7, size=(batch, length))
    x0_true = rng.normal(scale=0.4, size=(batch, length))
    mask = np.zeros((batch, length), dtype=bool)
    for b in range(batch):
        mask[b, : int(rng.integers(8, length + 1))] = True
    return pred, target, x0_pred, x0_true, mask


class TestTotalLoss:
    def test_step_zero_is_core_only(self):
        pred, target, x0p, x0t, mask = random_batch(1)
        bd = obj.total_loss(pred, target, x0p, x0t, mask, step=0, total_steps=100)
        assert bd.total == bd.core
        assert bd.jump > 0.0  # raw terms still reported

    def test_saturated_weights_recomposition(self):
        pred, target, x0p, x0t, mask = random_batch(2)
        w = obj.LossConfig()
        bd = obj.total_loss(pred, target, x0p, x0t, mask, step=500, total_steps=100,
                            config=w)
        recomposed = bd.core + (
            w.lambda_jump * bd.jump + w.lambda_vol * bd.vol
            + w.lambda_gvol * bd.gvol + w.lambda_kurt * bd.kurt
            + w.lambda_drift * bd.drift + w.lambda_pinball * bd.pinball
            + w.lambda_spectral * bd.spectral
        )
        assert abs(bd.total - recomposed) < 1e-12

    def test_perfect_prediction_all_zero(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=(2, 12))
        x0 = rng.normal(size=(2, 12))
        mask = np.ones((2, 12), dtype=bool)
        bd = obj.total_loss(pred, pred, x0, x0, mask, step=50, total_steps=100)
        for field in ("core", "jump", "vol", "gvol", "kurt", "drift",
                      "pinball", "spectral", "total"):
            assert getattr(bd, field) == 0.0
        assert bd.skipped == ()

    def test_total_at_least_core(self):
        pred, target, x0p, x0t, mask = random_batch(5)
        bd = obj.total_loss(pred, target, x0p, x0t, mask, step=77, total_steps=100)
        assert bd.total >= bd.core
        for term in ("jump", "vol", "gvol", "kurt", "drift", "pinball", "spectral"):
            assert getattr(bd, term) >= 0.0

    def test_mask_independence(self):
        pred, target, x0p, x0t, mask = random_batch(6)
        bd_ref, gp_ref, gx_ref = obj.total_loss(
            pred, target, x0p, x0t, mask, step=40, total_steps=100, with_grads=True
        )
        garbage = x0p.copy()
        garbage[~mask] = np.nan
        pred_garbage = pred.copy()
        pred_garbage[~mask] = -1e9
        bd2, gp2, gx2 = obj.total_loss(
            pred_garbage, target, garbage, x0t, mask, step=40, total_steps=100,
            with_grads=True,
        )
        for field in ("core", "jump", "vol", "gvol", "kurt", "drift",
                      "pinball", "spectral", "total"):
            assert abs(getattr(bd_ref, field) - getattr(bd2, field)) <= 1e-12
        np.testing.assert_array_equal(gp_ref[mask], gp2[mask])
        np.testing.assert_array_equal(gx_ref[mask], gx2[mask])
        assert np.all(gx2[~mask] == 0.0)
        assert np.all(gp2[~mask] == 0.0)

    def test_composite_grads_match_fd(self):
        pred, target, x0p, x0t, mask = random_batch(7, batch=2, length=10)
        _, g_pred, g_x0 = obj.total_loss(
            pred, target, x0p, x0t, mask, step=30, total_steps=100, with_grads=True
        )

        def total_of_pred(flat):
            bd = obj.total_loss(flat.reshape(pred.shape), target, x0p, x0t, mask,
                                step=30, total_steps=100)
            return bd.total

        def total_of_x0(flat):
            bd = obj.total_loss(pred, target, flat.reshape(x0p.shape), x0t, mask,
                                step=30, total_steps=100)
            return bd.total

        fd_pred = fd_grad(total_of_pred, pred.ravel().copy()).reshape(pred.shape)
        fd_x0 = fd_grad(total_of_x0, x0p.ravel().copy()).reshape(x0p.shape)
        assert_grad_close(g_pred[mask], fd_pred[mask])
        assert_grad_close(g_x0[mask], fd_x0[mask])

    def test_constant_row_skips_kurt_and_flags(self):
        length = 12
        pred = np.zeros((1, length))
        target = np.zeros((1, length))
        x0p = np.zeros((1, length))  # constant -> kurtosis undefined
        x0t = np.random.default_rng(8).normal(size=(1, length))
        mask = np.ones((1, length), dtype=bool)
        with pytest.warns(RuntimeWarning):
            bd = obj.total_loss(pred, target, x0p, x0t, mask, step=50,
                                total_steps=100)
        assert ("kurt", 1) in bd.skipped
        assert bd.kurt == 0.0
        # all-zero prediction also kills the spectral normalization
        assert ("spectral", 1) in bd.skipped

    def test_empty_row_rejected(self):
        pred, target, x0p, x0t, mask = random_batch(9)
        mask[1, :] = False
        with pytest.raises(DataError):
            obj.total_loss(pred, target, x0p, x0t, mask, step=1, total_steps=10)

    def test_shape_mismatch_rejected(self):
        pred, target, x0p, x0t, mask = random_batch(10)
        with pytest.raises(DataError):
            obj.total_loss(pred, target[:, :-1], x0p, x0t, mask, step=1,
                           total_steps=10)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_scale_monotone_in_step(self, step):
        s1 = obj.lambda_scale(step, 10_000, 0.1)
        s2 = obj.lambda_scale(step + 1, 10_000, 0.1)
        assert 0.0 <= s1 <= s2 <= 1.0


AUX_TERMS = ("jump", "vol", "gvol", "kurt", "drift", "pinball", "spectral")


class TestGroupedEvaluation:
    """Rows are grouped by valid length; grouping must not change any row."""

    def test_matches_single_row_batches(self):
        pred, target, x0p, x0t, mask = random_batch(21, batch=12, length=16)
        lens = mask.sum(axis=1)
        assert len(np.unique(lens)) > 2
        bd, _, g_x0 = obj.total_loss(pred, target, x0p, x0t, mask, step=60,
                                     total_steps=100, with_grads=True)
        batch = len(lens)
        sums = dict.fromkeys(AUX_TERMS, 0.0)
        for b, n in enumerate(lens):
            one = (slice(b, b + 1), slice(0, n))
            bd_b, _, g_b = obj.total_loss(pred[one], target[one], x0p[one], x0t[one],
                                          mask[one], step=60, total_steps=100,
                                          with_grads=True)
            for term in AUX_TERMS:
                sums[term] += getattr(bd_b, term)
            # a one-row batch weights its row by lambda/1 instead of lambda/B
            np.testing.assert_allclose(batch * g_x0[b, :n], g_b[0], rtol=0, atol=1e-12)
            assert np.all(g_x0[b, n:] == 0.0)
        for term in AUX_TERMS:
            assert abs(getattr(bd, term) - sums[term] / batch) <= 1e-12, term

    @pytest.mark.parametrize("side", ["pred", "true"])
    def test_constant_row_is_skipped_without_touching_others(self, side):
        rng = np.random.default_rng(22)
        batch, length = 5, 12
        pred = rng.normal(size=(batch, length))
        target = rng.normal(size=(batch, length))
        x0p = rng.normal(scale=0.7, size=(batch, length))
        x0t = rng.normal(scale=0.4, size=(batch, length))
        # constant and all-zero: kurtosis and spectrum undefined
        (x0p if side == "pred" else x0t)[2] = 0.0
        mask = np.ones((batch, length), dtype=bool)
        with pytest.warns(RuntimeWarning):
            bd, _, g_x0 = obj.total_loss(pred, target, x0p, x0t, mask, step=60,
                                         total_steps=100, with_grads=True)
        assert bd.skipped == (("kurt", 1), ("spectral", 1))
        # the skipped terms add nothing to the constant row's own gradient
        with pytest.warns(RuntimeWarning):
            _, _, g_ref = obj.total_loss(
                pred, target, x0p, x0t, mask, step=60, total_steps=100, with_grads=True,
                config=obj.LossConfig(lambda_kurt=0.0, lambda_spectral=0.0),
            )
        np.testing.assert_array_equal(g_x0[2], g_ref[2])

        keep = np.arange(batch) != 2
        bd_wo, _, g_wo = obj.total_loss(pred[keep], target[keep], x0p[keep],
                                        x0t[keep], mask[keep], step=60,
                                        total_steps=100, with_grads=True)
        assert bd_wo.skipped == ()
        np.testing.assert_allclose(batch * g_x0[keep], (batch - 1) * g_wo,
                                   rtol=0, atol=1e-12)
        for term in ("kurt", "spectral"):
            assert abs(batch * getattr(bd, term)
                       - (batch - 1) * getattr(bd_wo, term)) <= 1e-12
        assert np.all(np.isfinite(g_x0))

    def test_skips_counted_per_row_with_one_warning_per_term(self):
        pred, target, x0p, x0t, mask = random_batch(26, batch=6, length=12)
        mask[:] = True
        x0p[[0, 3]] = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bd = obj.total_loss(pred, target, x0p, x0t, mask, step=60, total_steps=100)
        assert bd.skipped == (("kurt", 2), ("spectral", 2))
        messages = [str(w.message) for w in caught]
        assert sorted(messages) == [
            "kurt term undefined for 2 sequence(s); contributed 0",
            "spectral term undefined for 2 sequence(s); contributed 0",
        ]

    def test_short_rows_are_counted_as_skipped(self):
        # length 1: no jump, gvol, kurtosis or spectrum; lengths 1 and 3:
        # shorter than the vol window of 5
        pred, target, x0p, x0t, mask = random_batch(27, batch=4, length=8)
        mask[:] = np.arange(8) < np.array([1, 3, 8, 8])[:, None]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bd = obj.total_loss(pred, target, x0p, x0t, mask, step=60, total_steps=100)
        assert bd.skipped == (("gvol", 1), ("jump", 1), ("kurt", 1), ("spectral", 1),
                              ("vol", 2))
        assert len(caught) == 5

    def test_stride_two_matches_single_term_view(self):
        pred, target, x0p, x0t, mask = random_batch(23, batch=6, length=16)
        bd = obj.total_loss(pred, target, x0p, x0t, mask, step=60,
                            total_steps=100, config=obj.LossConfig(vol_stride=2))
        rows = [obj._vol_clustering(x0p[b : b + 1, :n], x0t[b : b + 1, :n], 5, 2)[0][0]
                for b, n in enumerate(mask.sum(axis=1))]
        assert abs(bd.vol - sum(rows) / len(rows)) <= 1e-12

        _, grad = obj._vol_clustering(x0p[:1, :13], x0t[:1, :13], 5, 2)
        numeric = fd_grad(
            lambda x: obj._vol_clustering(x[None], x0t[:1, :13], 5, 2)[0][0],
            x0p[0, :13].copy(),
        )
        assert_grad_close(grad[0], numeric)

    def test_window_longer_than_some_rows(self):
        pred, target, x0p, x0t, mask = random_batch(24, batch=8, length=16)
        lens = mask.sum(axis=1)
        window = 12
        assert (lens < window).any() and (lens >= window).any()
        with pytest.warns(RuntimeWarning, match="vol term undefined"):
            bd = obj.total_loss(pred, target, x0p, x0t, mask, step=60, total_steps=100,
                                config=obj.LossConfig(vol_window=window))
        rows = [obj._vol_clustering(x0p[b : b + 1, :n], x0t[b : b + 1, :n], window, 1)[0][0]
                for b, n in enumerate(lens)]
        assert all(r == 0.0 for r, n in zip(rows, lens) if n < window)
        assert abs(bd.vol - sum(rows) / len(rows)) <= 1e-12

    def test_window_longer_than_every_row_contributes_zero(self):
        pred, target, x0p, x0t, mask = random_batch(25, batch=4, length=16)
        with pytest.warns(RuntimeWarning, match="vol term undefined for 4 sequence"):
            bd, _, g_x0 = obj.total_loss(pred, target, x0p, x0t, mask, step=60,
                                         total_steps=100,
                                         config=obj.LossConfig(vol_window=17),
                                         with_grads=True)
        assert bd.vol == 0.0
        # the vol weight is live, yet dropping it leaves the gradient unchanged
        assert obj.LossConfig().lambda_vol > 0.0
        with pytest.warns(RuntimeWarning, match="vol term undefined for 4 sequence"):
            _, _, g_ref = obj.total_loss(
                pred, target, x0p, x0t, mask, step=60, total_steps=100, with_grads=True,
                config=obj.LossConfig(lambda_vol=0.0, vol_window=17))
        np.testing.assert_array_equal(g_x0, g_ref)


class TestTruthTable:
    """Truth statistics computed once for padded rows give the on-the-fly bits."""

    LENGTH = 16

    def padded(self, seed):
        # row i < 16 has length i + 1; a zero row of length 8 (no kurtosis,
        # no spectrum) and a constant row of length 12 (no kurtosis)
        rng = np.random.default_rng(seed)
        lens = np.concatenate([np.arange(1, self.LENGTH + 1),
                               rng.integers(1, self.LENGTH + 1, size=14)])
        mask = np.arange(self.LENGTH) < lens[:, None]
        x0 = np.where(mask, rng.normal(scale=0.4, size=mask.shape), 0.0)
        x0[7, :8] = 0.0
        x0[11, :12] = 0.25
        return x0, mask

    @staticmethod
    def hexes(bd):
        return ([float(getattr(bd, f.name)).hex() for f in dataclasses.fields(bd)
                 if f.name != "skipped"], bd.skipped)

    CONFIGS = [(5, 1), (9, 2), (17, 1)]  # (vol_window, vol_stride)

    @pytest.mark.parametrize("window,stride", CONFIGS)
    def test_table_rows_are_each_rows_own(self, window, stride):
        x0, mask = self.padded(31)
        table = obj.truth_table(x0, mask, obj.LossConfig(vol_window=window, vol_stride=stride))
        assert sorted(table) == list(range(1, self.LENGTH + 1))
        for n, (rows, stats) in table.items():
            assert np.array_equal(rows, np.flatnonzero(mask.sum(axis=1) == n))
            for i, s in enumerate(rows):
                alone = obj.truth_stats(x0[s : s + 1, :n], window, stride)
                assert alone.keys() == stats.keys()
                for name, want in alone.items():
                    got = stats[name][i : i + 1]
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window,stride", CONFIGS)
    def test_total_loss_with_the_table_matches_on_the_fly(self, window, stride):
        x0, mask = self.padded(32)
        config = obj.LossConfig(vol_window=window, vol_stride=stride)
        table = obj.truth_table(x0, mask, config)
        rng = np.random.default_rng([window, stride])
        skipped = set()
        for _ in range(6):
            idx = rng.integers(0, len(x0), size=24)
            pred, target, x0p = rng.normal(size=(3, 24, self.LENGTH))
            args = (pred, target, x0p, x0[idx], mask[idx], 60, 100, config)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = obj.total_loss(*args, with_grads=True)
                got = obj.total_loss(*args, with_grads=True, truth=(table, idx))
            assert self.hexes(got[0]) == self.hexes(want[0])
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()
            skipped |= {term for term, _ in want[0].skipped}
        assert {"jump", "gvol", "kurt", "spectral", "vol"} <= skipped


class TestCsvRow:
    def test_header_and_row_roundtrip(self):
        bd = obj.LossBreakdown(
            core=1.25, jump=0.1, vol=0.2, gvol=0.3, kurt=0.4, drift=0.5,
            pinball=0.6, spectral=0.7, total=2.0,
        )
        row = obj.format_loss_row(17, bd)
        fields = row.split(",")
        assert len(fields) == len(obj.LOSS_CSV_HEADER.split(","))
        assert fields[0] == "17"
        assert float(fields[1]) == 1.25
        assert float(fields[-1]) == 2.0

    def test_header_pinned_and_row_in_column_order(self):
        # the header is derived from the term tuple; loss_log.csv keeps this text
        assert obj.LOSS_CSV_HEADER == (
            "step,core,jump,vol,gvol,kurt,drift,pinball,spectral,total")
        values = dict(core=1.5, jump=0.25, vol=0.5, gvol=0.75, kurt=1.0, drift=1.25,
                      pinball=2.5, spectral=3.0, total=4.5)
        row = obj.format_loss_row(3, obj.LossBreakdown(**values))
        assert row == "3," + ",".join(repr(values[c])
                                      for c in obj.LOSS_CSV_HEADER.split(",")[1:])


class TestSharedPasses:
    """Kernels that form a deviation once keep the bits of np.mean/np.var."""

    def rows(self, shape, seed):
        return np.random.default_rng(seed).normal(0.3, 2.0, size=shape)

    @pytest.mark.parametrize("shape", [(7, 18), (3, 20), (1, 5)])
    def test_kurtosis(self, shape):
        x = self.rows(shape, 1)
        values, grad, defined = obj._kurtosis(x)
        ref_values, ref_grad = oracles.kurtosis_reference(x)
        assert defined.all()
        assert values.tobytes() == ref_values.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        no_grad, none, _ = obj._kurtosis(x, with_grad=False)
        assert none is None and no_grad.tobytes() == values.tobytes()

    @pytest.mark.parametrize("shape", [(7, 18), (4, 12, 5)])
    def test_guarded_std(self, shape):
        x = self.rows(shape, 2)
        dev, std = obj._guarded_std(x)
        mean, ref_std = oracles.guarded_std_reference(x, obj.VAR_FLOOR)
        assert std.tobytes() == ref_std.tobytes()
        assert dev.tobytes() == (x - mean[..., None]).tobytes()
