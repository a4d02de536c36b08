import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqlab.diffusion import (
    MODES,
    NoiseSchedule,
    build_schedule,
    forward_diffuse,
    recover_eps,
    recover_x0,
    training_target,
    v_target,
    x0_coefficients,
)
from pqlab.errors import ConfigError, DataError


def quarter_abar_schedule():
    # single step with beta = 0.75 so abar_1 = 0.25
    return NoiseSchedule(np.array([0.75]))


class TestBuildSchedule:
    def test_single_step(self):
        sched = build_schedule(1, 0.5, 0.5)
        assert sched.alpha_bar_at(1) == pytest.approx(0.5)

    def test_single_step_takes_beta_start(self):
        assert build_schedule(1, 0.1, 0.2).beta.tolist() == [0.1]

    def test_two_step_product(self):
        sched = NoiseSchedule(np.array([0.1, 0.2]))
        assert np.allclose(sched.alpha_bar, [0.9, 0.72])

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            build_schedule(10, 0.1, 1.0)
        with pytest.raises(ConfigError):
            build_schedule(10, 0.0, 0.5)
        with pytest.raises(ConfigError):
            build_schedule(10, 0.5, 0.1)
        with pytest.raises(ConfigError):
            build_schedule(0, 0.1, 0.2)

    def test_default_endpoints(self):
        sched = build_schedule()
        assert sched.T == 1000
        assert sched.beta[0] == pytest.approx(1e-4)
        assert sched.beta[-1] == pytest.approx(0.02)

    def test_step_zero_is_identity(self):
        sched = build_schedule(10, 0.1, 0.2)
        assert sched.alpha_bar_at(0) == 1.0

    def test_out_of_range_step(self):
        sched = build_schedule(10, 0.1, 0.2)
        with pytest.raises(DataError):
            sched.alpha_bar_at(11)

    @given(st.integers(1, 200), st.floats(1e-5, 0.3))
    def test_alpha_bar_strictly_decreasing(self, T, beta_start):
        sched = build_schedule(T, beta_start, min(0.9, beta_start * 3))
        abar = sched.alpha_bar
        assert np.all(np.diff(abar) < 0) or T == 1
        assert abar[-1] <= abar[0] < 1.0


class TestForwardDiffuse:
    def test_identity_at_step_zero(self):
        sched = quarter_abar_schedule()
        x0 = np.array([[1.0, 2.0, 3.0]])
        out = forward_diffuse(x0, 0, np.zeros_like(x0), sched)
        assert np.array_equal(out, x0)

    def test_hand_value(self):
        sched = quarter_abar_schedule()
        out = forward_diffuse(np.array([2.0]), 1, np.array([1.0]), sched)
        assert out[0] == pytest.approx(1.86603, abs=1e-5)

    def test_noiseless_branch(self):
        sched = quarter_abar_schedule()
        x0 = np.array([4.0])
        out = forward_diffuse(x0, 1, np.zeros(1), sched)
        assert out[0] == pytest.approx(0.5 * 4.0)

    def test_shape_mismatch(self):
        sched = quarter_abar_schedule()
        with pytest.raises(DataError):
            forward_diffuse(np.zeros(3), 1, np.zeros(4), sched)

    def test_per_sample_steps_broadcast(self):
        sched = build_schedule(100, 1e-4, 0.02)
        x0 = np.random.default_rng(0).normal(size=(4, 1, 8))
        eps = np.random.default_rng(1).normal(size=(4, 1, 8))
        t = np.array([1, 50, 99, 100])
        out = forward_diffuse(x0, t, eps, sched)
        for i in range(4):
            single = forward_diffuse(x0[i : i + 1], int(t[i]), eps[i : i + 1], sched)
            assert np.allclose(out[i], single[0], rtol=0, atol=0)

    def test_marginal_consistency(self):
        # sample mean ~ sqrt(abar)*x0, variance ~ 1-abar
        sched = build_schedule(1000, 1e-4, 0.02)
        rng = np.random.default_rng(42)
        x0 = 0.7
        for t in (1, 500, 1000):
            eps = rng.standard_normal(100_000)
            xt = forward_diffuse(np.full_like(eps, x0), t, eps, sched)
            abar = float(sched.alpha_bar_at(t))
            assert abs(xt.mean() - np.sqrt(abar) * x0) < 0.01
            assert abs(xt.var() - (1 - abar)) / (1 - abar) < 0.05


class TestVTarget:
    def test_step_zero_gives_eps(self):
        sched = quarter_abar_schedule()
        eps = np.array([1.0, -2.0])
        out = v_target(np.array([5.0, 6.0]), eps, 0, sched)
        assert np.allclose(out, eps)

    def test_hand_value(self):
        sched = quarter_abar_schedule()
        out = v_target(np.array([2.0]), np.array([1.0]), 1, sched)
        assert out[0] == pytest.approx(-1.23205, abs=1e-5)

    def test_zero_inputs(self):
        sched = quarter_abar_schedule()
        assert v_target(np.zeros(3), np.zeros(3), 1, sched).sum() == 0.0


class TestRecover:
    def test_x0_mode_passthrough(self):
        sched = quarter_abar_schedule()
        pred = np.array([3.14])
        out = recover_x0(np.array([0.0]), pred, "x0", 1, sched)
        assert np.array_equal(out, pred)

    def test_eps_mode_exact_inversion(self):
        sched = quarter_abar_schedule()
        x0 = np.array([2.0])
        eps = np.array([1.0])
        xt = forward_diffuse(x0, 1, eps, sched)
        out = recover_x0(xt, eps, "eps", 1, sched)
        assert out[0] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_round_trip_identity_all_modes_all_t(self, mode):
        sched = build_schedule(50, 1e-3, 0.05)
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(3, 1, 16))
        eps = rng.normal(size=(3, 1, 16))
        for t in range(1, 51):
            xt = forward_diffuse(x0, t, eps, sched)
            target = training_target(mode, x0, eps, t, sched)
            back = recover_x0(xt, target, mode, t, sched)
            assert np.max(np.abs(back - x0)) < 1e-10
            eps_back = recover_eps(xt, target, mode, t, sched)
            assert np.max(np.abs(eps_back - eps)) < 1e-10

    @pytest.mark.parametrize("mode", MODES)
    def test_x0_coefficients_match_numerical_jacobian(self, mode):
        sched = build_schedule(50, 1e-3, 0.05)
        rng = np.random.default_rng(6)
        x_t = rng.normal(size=4)
        pred = rng.normal(size=4)
        for t in (1, 25, 50):
            scale = x0_coefficients(mode, t, sched)
            h = 1e-6
            bumped = recover_x0(x_t, pred + h, mode, t, sched)
            base = recover_x0(x_t, pred, mode, t, sched)
            assert np.allclose((bumped - base) / h, scale, rtol=1e-5, atol=1e-8)


class TestTrainingTarget:
    def test_modes_dispatch(self):
        sched = quarter_abar_schedule()
        x0 = np.array([2.0])
        eps = np.array([1.0])
        assert training_target("eps", x0, eps, 1, sched)[0] == 1.0
        assert training_target("x0", x0, eps, 1, sched)[0] == 2.0
        assert training_target("v", x0, eps, 1, sched)[0] == pytest.approx(-1.23205, abs=1e-5)
        with pytest.raises(ConfigError):
            training_target("score", x0, eps, 1, sched)
