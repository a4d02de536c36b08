import math
import tracemalloc

import numpy as np
import pytest
import oracles
from numpy.lib.stride_tricks import as_strided
from oracles import denoiser_backward_reference, denoiser_forward_reference

from pqlab import denoiser as dn
from pqlab import nn
from pqlab.errors import ConfigError, DataError, NumericError


def tiny_config():
    # small enough for exhaustive finite-difference checking (< 500 params)
    return dn.DenoiserConfig(
        input_length=4,
        base_channels=2,
        depth=1,
        time_embed_dim=2,
        cond_embed_dim=2,
        cond_hidden_dim=2,
        cond_dim=5,
    )


def desk_config():
    return dn.DenoiserConfig(input_length=24, base_channels=8, depth=2,
                             time_embed_dim=8, cond_embed_dim=8,
                             cond_hidden_dim=16)


def random_batch(config, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, config.in_channels, config.input_length))
    t = rng.integers(1, 100, size=batch)
    c = rng.normal(size=(batch, config.cond_dim))
    return x, t, c


def masked_mse_loss(target, mask):
    """Plain masked MSE with its analytic gradient, used as the test loss."""
    n = max(int(mask.sum()), 1)

    def loss_fn(pred):
        diff = (pred - target) * mask
        value = float(np.sum(diff * diff) / n)
        return value, 2.0 * diff / n

    return loss_fn


def guarded(a, pad):
    """A batch-major (B, C, L) array as nn reads it: (L + 2 pad, C, B), zero guards."""
    out = np.zeros((a.shape[2] + 2 * pad, a.shape[1], a.shape[0]))
    out[pad : pad + a.shape[2]] = a.transpose(2, 1, 0)
    return out


def batch_major(a, pad):
    """The rows of a guarded (L + 2 pad, C, B) array as (B, C, L)."""
    return a[pad : a.shape[0] - pad].transpose(2, 1, 0)


def assert_close(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


class TestTimeEmbed:
    def test_zero_step(self):
        emb = dn.time_embed(0.0, 8)[0]
        assert np.allclose(emb[0::2], 0.0)
        assert np.allclose(emb[1::2], 1.0)

    def test_unit_frequency_pair(self):
        emb = dn.time_embed(1.0, 2)[0]
        assert emb[0] == pytest.approx(0.841471, abs=1e-6)
        assert emb[1] == pytest.approx(0.540302, abs=1e-6)

    def test_lowest_frequency_aliasing(self):
        # d=4: omega_1 = 1/100, so shifting t by 200*pi realigns every pair
        a = dn.time_embed(1.5, 4)[0]
        b = dn.time_embed(1.5 + 200.0 * math.pi, 4)[0]
        assert np.allclose(a, b, atol=1e-9)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            dn.time_embed(1.0, 3)


class TestCondEmbed:
    def test_zero_params_zero_output(self):
        params = {
            "cond.w1": np.zeros((4, 3)),
            "cond.b1": np.zeros(4),
            "cond.w2": np.zeros((2, 4)),
            "cond.b2": np.zeros(2),
        }
        out, _ = dn._cond_embed_fwd(np.array([[1.0, -2.0, 3.0]]), params)
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_identity_composition_is_relu(self):
        params = {
            "cond.w1": np.eye(3),
            "cond.b1": np.zeros(3),
            "cond.w2": np.eye(3),
            "cond.b2": np.zeros(3),
        }
        c = np.array([1.0, -1.0, 0.5])
        out = dn._cond_embed_fwd(c[None], params)[0][0]
        assert np.array_equal(out, np.maximum(c, 0.0))

    def test_matches_dense_algebra_oracle(self):
        rng = np.random.default_rng(3)
        params = {
            "cond.w1": rng.normal(size=(7, 5)),
            "cond.b1": rng.normal(size=7),
            "cond.w2": rng.normal(size=(4, 7)),
            "cond.b2": rng.normal(size=4),
        }
        c = rng.normal(size=5)
        expected = params["cond.w2"] @ np.maximum(
            params["cond.w1"] @ c + params["cond.b1"], 0.0
        ) + params["cond.b2"]
        assert np.allclose(dn._cond_embed_fwd(c[None], params)[0][0], expected, atol=1e-12)


class TestConfigValidation:
    def test_length_must_divide(self):
        with pytest.raises(ConfigError):
            dn.DenoiserConfig(input_length=6, depth=2)

    def test_time_dim_must_be_even(self):
        with pytest.raises(ConfigError):
            dn.DenoiserConfig(input_length=8, time_embed_dim=3)

    def test_longest_input_is_accepted(self):
        dn.DenoiserConfig(input_length=dn.MAX_INPUT_LENGTH)
        assert 2**dn.MAX_DEPTH == dn.MAX_INPUT_LENGTH
        # the deepest layout passes the depth check; its widths then meet
        # the parameter cap
        with pytest.raises(ConfigError, match="parameters, more than"):
            dn.DenoiserConfig(input_length=dn.MAX_INPUT_LENGTH, base_channels=1,
                              depth=dn.MAX_DEPTH)

    @pytest.mark.parametrize("field, value, needle", [
        ("input_length", dn.MAX_INPUT_LENGTH + 4, "input_length must be at most"),
        ("input_length", 2**40, "input_length must be at most"),
        ("depth", dn.MAX_DEPTH + 1, "depth must be at most"),
        ("depth", 10**12, "depth must be at most"),
        ("base_channels", 10**6, "parameters, more than"),
        ("time_embed_dim", 2 * 10**9, "parameters, more than"),
        ("cond_embed_dim", 10**9, "parameters, more than"),
        ("cond_hidden_dim", 10**12, "parameters, more than"),
        ("in_channels", 10**9, "parameters, more than"),
        ("cond_dim", 10**9, "parameters, more than"),
    ])
    def test_oversized_field_is_refused(self, field, value, needle):
        # checked on the numbers alone: nothing is allocated at these sizes
        with pytest.raises(ConfigError, match=needle):
            dn.DenoiserConfig(**{"input_length": 16, field: value})

    def test_param_cap_is_the_count(self):
        wide = dn.DenoiserConfig(input_length=16, base_channels=256)
        assert dn.MAX_PARAMS // 2 < dn.param_count(wide) <= dn.MAX_PARAMS
        with pytest.raises(ConfigError, match=f"more than {dn.MAX_PARAMS}"):
            dn.DenoiserConfig(input_length=16, base_channels=512)


class TestParams:
    def test_count_matches_independent_walk(self):
        for config in (tiny_config(), desk_config()):
            e = config.time_embed_dim + config.cond_embed_dim
            total = (
                config.cond_hidden_dim * config.cond_dim
                + config.cond_hidden_dim
                + config.cond_embed_dim * config.cond_hidden_dim
                + config.cond_embed_dim
            )

            def res(ch):
                return 2 * (3 * ch * ch + ch) + 2 * ch

            prev = config.in_channels
            for i in range(config.depth):
                ch = config.base_channels * 2**i
                total += ch * (prev + e) * 3 + ch + res(ch)
                prev = ch
            mid = config.base_channels * 2**config.depth
            total += mid * (prev + e) * 3 + mid + res(mid)
            above = mid
            for i in reversed(range(config.depth)):
                ch = config.base_channels * 2**i
                total += ch * (above + ch + e) * 3 + ch + res(ch)
                above = ch
            total += config.in_channels * config.base_channels + config.in_channels
            assert dn.param_count(config) == total

    def test_tiny_config_is_small_enough_for_fd(self):
        assert dn.param_count(tiny_config()) <= 500

    def test_flatten_round_trip(self):
        config = tiny_config()
        params = dn.init_params(config, seed=1)
        flat = dn.flatten_params(params, dn.param_spec(config))
        back = dn.unflatten_params(flat, dn.param_spec(config))
        assert set(back) == set(params)
        for k in params:
            assert np.array_equal(back[k], params[k])
        for bad in (flat[:-1], np.append(flat, 0.0)):
            with pytest.raises(DataError):
                dn.unflatten_params(bad, dn.param_spec(config))

    def test_bn_state_follows_bn_spec(self):
        config = tiny_config()
        state = dn.init_bn_state(config)
        spec = dn.bn_spec(config)
        assert list(state) == [name for name, _ in spec]
        for name, shape in spec:
            assert state[name].shape == shape
            assert np.all(state[name] == (0.0 if name.endswith("_mean") else 1.0))
        back = dn.unflatten_params(dn.flatten_params(state, spec), spec)
        assert all(np.array_equal(back[k], state[k]) for k in state)

    def test_init_deterministic(self):
        config = tiny_config()
        a = dn.flatten_params(dn.init_params(config, 9), dn.param_spec(config))
        b = dn.flatten_params(dn.init_params(config, 9), dn.param_spec(config))
        assert np.array_equal(a, b)


class TestForward:
    @pytest.mark.parametrize("config", [tiny_config(), desk_config()])
    def test_shape_contract(self, config):
        params = dn.init_params(config, seed=2)
        state = dn.init_bn_state(config)
        x, t, c = random_batch(config)
        out, _, _ = dn.forward(params, state, x, t, c, config)
        assert out.shape == x.shape

    def test_zero_head_at_init(self):
        config = desk_config()
        params = dn.init_params(config, seed=4)
        state = dn.init_bn_state(config)
        x, t, c = random_batch(config)
        out, _, _ = dn.forward(params, state, x, t, c, config)
        assert np.array_equal(out, np.zeros_like(x))

    def test_batch_independence_inference(self):
        config = tiny_config()
        params = dn.init_params(config, seed=5)
        # make the head non-trivial so the test has teeth
        rng = np.random.default_rng(6)
        params["head.w"] = rng.normal(size=params["head.w"].shape)
        state = dn.init_bn_state(config)
        x, t, c = random_batch(config, batch=4, seed=7)
        full, _, _ = dn.forward(params, state, x, t, c, config, training=False)
        for i in range(4):
            single, _, _ = dn.forward(
                params, state, x[i : i + 1], t[i : i + 1], c[i : i + 1], config
            )
            # frozen statistics mean no cross-sample coupling; the residual
            # difference is summation-order reassociation inside einsum
            assert np.allclose(single[0], full[i], atol=1e-12, rtol=0)

    def test_bitwise_stable(self):
        config = desk_config()
        params = dn.init_params(config, seed=8)
        state = dn.init_bn_state(config)
        x, t, c = random_batch(config, seed=9)
        a, _, _ = dn.forward(params, state, x, t, c, config, training=True)
        b, _, _ = dn.forward(params, state, x, t, c, config, training=True)
        assert np.array_equal(a, b)

    def test_nan_input_rejected(self):
        config = tiny_config()
        params = dn.init_params(config, seed=1)
        state = dn.init_bn_state(config)
        x, t, c = random_batch(config)
        x[0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            dn.forward(params, state, x, t, c, config)

    def test_nan_condition_rejected(self):
        # the condition MLP's ReLU would map NaN to 0 and hide it
        config = tiny_config()
        params = dn.init_params(config, seed=1)
        x, t, c = random_batch(config)
        c[1, 2] = np.nan
        with pytest.raises(NumericError, match="condition"):
            dn.forward(params, dn.init_bn_state(config), x, t, c, config)

    @pytest.mark.parametrize("t", [np.nan, [5.0, np.inf, 7.0]])
    def test_non_finite_step_rejected(self, t):
        config = tiny_config()
        params = dn.init_params(config, seed=1)
        x, _, c = random_batch(config)
        with pytest.raises(NumericError, match="step"):
            dn.forward(params, dn.init_bn_state(config), x, t, c, config)

    @pytest.mark.parametrize("t", [[5, 6], np.ones((3, 1)), []])
    def test_step_neither_scalar_nor_per_row_rejected(self, t):
        config = tiny_config()
        params = dn.init_params(config, seed=1)
        x, _, c = random_batch(config)  # batch 3
        with pytest.raises(ConfigError, match="step"):
            dn.forward(params, dn.init_bn_state(config), x, t, c, config)

    def test_training_mode_updates_running_stats(self):
        config = tiny_config()
        params = dn.init_params(config, seed=1)
        state = dn.init_bn_state(config)
        x, t, c = random_batch(config)
        _, _, updates = dn.forward(params, state, x, t, c, config, training=True)
        assert updates
        assert any(
            not np.array_equal(updates[k], state[k]) for k in updates
        )


class TestResBlockIdentity:
    def test_zero_convs_identity(self):
        config = tiny_config()
        params = dn.init_params(config, seed=3)
        state = dn.init_bn_state(config)
        for key in ("enc0.res.conv1.w", "enc0.res.conv1.b",
                    "enc0.res.conv2.w", "enc0.res.conv2.b"):
            params[key] = np.zeros_like(params[key])
        x = np.random.default_rng(0).normal(size=(2, 2, 4))
        prepared = dn.prepare(params, state, np.zeros((4, config.cond_dim)), config)
        out, _, _ = dn._resblock_fwd(x, params, "enc0.res", prepared.folded["enc0.res"])
        assert np.array_equal(out, x)


class TestGradient:
    def test_zero_mask_zero_gradient(self):
        config = tiny_config()
        params = dn.init_params(config, seed=10)
        state = dn.init_bn_state(config)
        x, t, c = random_batch(config, seed=11)
        target = np.zeros_like(x)
        loss_fn = masked_mse_loss(target, np.zeros_like(x))
        loss, grads, _ = dn.gradient(params, state, (x, t, c), loss_fn, config)
        assert loss == 0.0
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_deterministic(self):
        config = tiny_config()
        params = dn.init_params(config, seed=12)
        state = dn.init_bn_state(config)
        x, t, c = random_batch(config, seed=13)
        rng = np.random.default_rng(14)
        target = rng.normal(size=x.shape)
        loss_fn = masked_mse_loss(target, np.ones_like(x))
        l1, g1, _ = dn.gradient(params, state, (x, t, c), loss_fn, config)
        l2, g2, _ = dn.gradient(params, state, (x, t, c), loss_fn, config)
        assert l1 == l2
        assert all(np.array_equal(g1[k], g2[k]) for k in g1)

    def test_non_finite_loss_raises(self):
        config = tiny_config()
        params = dn.init_params(config, seed=15)
        state = dn.init_bn_state(config)
        x, t, c = random_batch(config, seed=16)

        def bad_loss(pred):
            return float("nan"), np.zeros_like(pred)

        with pytest.raises(NumericError):
            dn.gradient(params, state, (x, t, c), bad_loss, config)

    def test_matches_central_finite_differences(self):
        config = tiny_config()
        params = dn.init_params(config, seed=17)
        # non-zero head so the head gradient path is exercised
        rng = np.random.default_rng(18)
        params["head.w"] = 0.3 * rng.normal(size=params["head.w"].shape)
        params["head.b"] = 0.1 * rng.normal(size=params["head.b"].shape)
        state = dn.init_bn_state(config)
        x, t, c = random_batch(config, batch=2, seed=19)
        mask = np.ones_like(x)
        mask[:, :, -1] = 0.0  # exercise the masked path too
        target = rng.normal(size=x.shape)
        loss_fn = masked_mse_loss(target, mask)

        _, grads, _ = dn.gradient(params, state, (x, t, c), loss_fn, config)
        spec = dn.param_spec(config)
        analytic = dn.flatten_params(grads, spec)

        flat = dn.flatten_params(params, spec)
        fd = np.zeros_like(flat)
        h = 1e-5
        for k in range(len(flat)):
            bumped = flat.copy()
            bumped[k] = flat[k] + h
            up, _, _ = dn.forward(
                dn.unflatten_params(bumped, spec), state, x, t, c, config,
                training=True,
            )
            bumped[k] = flat[k] - h
            down, _, _ = dn.forward(
                dn.unflatten_params(bumped, spec), state, x, t, c, config,
                training=True,
            )
            fd[k] = (loss_fn(up)[0] - loss_fn(down)[0]) / (2.0 * h)

        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-8)
        rel = np.abs(analytic - fd) / denom
        assert rel.max() < 1e-4


def perturbed_model(config, seed):
    """Parameters and running statistics with every entry away from its init."""
    rng = np.random.default_rng([seed, 0xD1])
    params = {
        name: value + 0.3 * rng.normal(size=value.shape)
        for name, value in dn.init_params(config, seed).items()
    }
    state = {
        name: value + (0.5 * rng.random(value.shape) if name.endswith("_var")
                       else 0.2 * rng.normal(size=value.shape))
        for name, value in dn.init_bn_state(config).items()
    }
    return params, state


ORACLE_CASES = {
    # name: (config, batch, per-row t and c)
    "depth1": (dn.DenoiserConfig(input_length=8, base_channels=3, depth=1,
                                 time_embed_dim=4, cond_embed_dim=3), 5, True),
    "depth3": (dn.DenoiserConfig(input_length=16, base_channels=2, depth=3,
                                 time_embed_dim=4, cond_embed_dim=4), 6, True),
    "bottleneck1": (dn.DenoiserConfig(input_length=4, base_channels=3, depth=2,
                                      time_embed_dim=2, cond_embed_dim=2), 4, True),
    "batch1": (dn.DenoiserConfig(input_length=20), 1, True),
    "shared_t_c": (dn.DenoiserConfig(input_length=20), 32, False),
}


class TestMatchesBatchMajorOracle:
    """The position-major network equals the batch-major oracle to float rounding."""

    def run_case(self, case):
        config, batch, per_row = ORACLE_CASES[case]
        params, state = perturbed_model(config, seed=len(case))
        rng = np.random.default_rng([batch, 0xD2])
        x = rng.normal(size=(batch, config.in_channels, config.input_length))
        if per_row:
            t = rng.integers(1, 200, size=batch)
            c = rng.normal(size=(batch, config.cond_dim))
        else:
            t = 37
            c = np.repeat(rng.normal(size=(1, config.cond_dim)), batch, axis=0)
        return config, params, state, x, t, c, rng

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_inference_output(self, case):
        config, params, state, x, t, c, _ = self.run_case(case)
        out, cache, updates = dn.forward(params, state, x, t, c, config)
        ref, _, _ = denoiser_forward_reference(params, state, x, t, c, config)
        assert cache is None and updates == {}
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_training_gradients_and_running_stats(self, case):
        config, params, state, x, t, c, rng = self.run_case(case)
        out, cache, updates = dn.forward(params, state, x, t, c, config, training=True)
        ref, ref_cache, ref_updates = denoiser_forward_reference(
            params, state, x, t, c, config, training=True)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

        g_out = rng.normal(size=out.shape)
        spec = dn.param_spec(config)
        grads = dn.flatten_params(dn.backward(g_out, cache, params), spec)
        ref_grads = dn.flatten_params(
            denoiser_backward_reference(g_out, ref_cache, params), spec)
        assert np.max(np.abs(grads - ref_grads)) <= 1e-10 * np.max(np.abs(ref_grads))

        assert list(updates) == list(ref_updates)
        for name, value in ref_updates.items():
            assert np.max(np.abs(updates[name] - value)) <= 1e-12 * np.max(np.abs(value))


TOY = dn.DenoiserConfig(input_length=20)  # the acceptance toy network


class TestWorkspace:
    """An inference forward with a workspace equals one without, bit for bit."""

    def inputs(self, config, batch, seed):
        rng = np.random.default_rng([seed, 0xD3])
        x = rng.normal(size=(batch, config.in_channels, config.input_length))
        t = rng.integers(1, 1000, size=batch) if seed % 2 else int(rng.integers(1, 1000))
        return x, t, rng.normal(size=(batch, config.cond_dim))

    @pytest.mark.parametrize("config", [TOY, ORACLE_CASES["depth3"][0]],
                             ids=["toy", "depth3"])
    def test_successive_calls_equal_fresh_forwards(self, config):
        params, state = perturbed_model(config, seed=21)
        workspace = nn.Workspace()
        for seed in range(4):  # per-row and shared steps, a new x and c each time
            x, t, c = self.inputs(config, 9, seed)
            fresh, _, _ = dn.forward(params, state, x, t, c, config)
            lent, cache, updates = dn.forward(params, state, x, t, c, config,
                                              workspace=workspace)
            assert cache is None and updates == {}
            assert lent.tobytes() == fresh.tobytes()

    def test_survives_a_batch_change(self):
        # the two chunk sizes of a 300-path sample_paths, then a larger batch
        params, state = perturbed_model(TOY, seed=22)
        workspace = nn.Workspace()
        for batch in (256, 44, 300):
            x, t, c = self.inputs(TOY, batch, batch)
            fresh, _, _ = dn.forward(params, state, x, t, c, TOY)
            lent, _, _ = dn.forward(params, state, x, t, c, TOY, workspace=workspace)
            assert lent.tobytes() == fresh.tobytes()

    def test_output_does_not_alias_the_workspace(self):
        params, state = perturbed_model(TOY, seed=23)
        workspace = nn.Workspace()
        x, t, c = self.inputs(TOY, 12, 1)
        expected, _, _ = dn.forward(params, state, x, t, c, TOY)
        out, _, _ = dn.forward(params, state, x, t, c, TOY, workspace=workspace)
        assert workspace.buffers
        assert not any(np.shares_memory(out, buf) for buf in workspace.buffers)
        out[...] = 1e300
        again, _, _ = dn.forward(params, state, x, t, c, TOY, workspace=workspace)
        assert again.tobytes() == expected.tobytes()
        assert not np.shares_memory(out, again)

    @pytest.mark.parametrize("flags", [{"training": True}])
    def test_training_or_cache_refused(self, flags):
        params, state = perturbed_model(TOY, seed=24)
        x, t, c = self.inputs(TOY, 4, 1)
        with pytest.raises(ConfigError):
            dn.forward(params, state, x, t, c, TOY, workspace=nn.Workspace(), **flags)

    def test_inplace_relu_matches_relu(self):
        x = np.array([-0.0, 0.0, -1.5, 2.5, 5e-324, -5e-324, 1e308, -1e308])
        expected, _ = nn.relu(x)
        assert nn.relu_inplace(x.copy()).tobytes() == expected.tobytes()

    def test_maskless_maxpool_matches_masked_maxpool(self):
        # every pair of signed zeros, subnormals, normals and extremes, plus
        # random pairs with ties: np.maximum keeps the first on a +-0 tie
        edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                -2.2250738585072014e-308, 1.0, -1.0, 1.7976931348623157e308,
                -1.7976931348623157e308]
        pairs = np.array([[a, b] for a in edge for b in edge]).reshape(-1, 1, 1)
        rng = np.random.default_rng(27)
        for x in (pairs, np.round(rng.normal(size=(20, 16, 20)), 1)):
            masked, take_second = nn.maxpool2(x)
            out = np.full((x.shape[0] // 2,) + x.shape[1:], np.nan)
            lent, no_mask = nn.maxpool2(x, out=out, mask=False)
            assert no_mask is None and take_second is not None and lent is out
            assert lent.tobytes() == masked.tobytes()

    def test_stale_workspace_memory_is_never_read(self):
        # every buffer filled with NaN between two forwards: guard rows are
        # zeroed at each lend and every other element is written before read
        params, state = perturbed_model(TOY, seed=28)
        x, t, c = self.inputs(TOY, 16, 3)
        fresh, _, _ = dn.forward(params, state, x, t, c, TOY, workspace=nn.Workspace())
        workspace = nn.Workspace()
        dn.forward(params, state, x, t, c, TOY, workspace=workspace)
        for buf in workspace.buffers:
            buf.fill(np.nan)
        again, _, _ = dn.forward(params, state, x, t, c, TOY, workspace=workspace)
        assert again.tobytes() == fresh.tobytes()

    def test_warm_forward_makes_no_hidden_operand_copy(self, monkeypatch):
        # numpy copies a matmul operand that shares memory with the output,
        # so no conv may write the array whose windows it reads
        params, state = perturbed_model(TOY, seed=29)
        x, t, c = self.inputs(TOY, 24, 1)
        workspace = nn.Workspace()
        dn.forward(params, state, x, t, c, TOY, workspace=workspace)  # warm up
        shared = []
        conv1d = nn.conv1d

        def spy(x, w, b, **kwargs):
            y, cache = conv1d(x, w, b, **kwargs)
            shared.append(np.shares_memory(y, x))
            return y, cache

        monkeypatch.setattr(nn, "conv1d", spy)
        dn.forward(params, state, x, t, c, TOY, workspace=workspace)
        assert len(shared) == 3 * (2 * TOY.depth + 1) + 1  # 3 per level, and the head
        assert not any(shared)

    def test_bytes_held_at_a_full_chunk(self):
        # the figure the README gives for one 256-path sampling chunk
        params, state = perturbed_model(TOY, seed=26)
        workspace = nn.Workspace()
        dn.forward(params, state, *self.inputs(TOY, 256, 1), TOY, workspace=workspace)
        assert sum(buf.nbytes for buf in workspace.buffers) == 7_274_496

    def test_warm_forward_allocates_an_eighth_or_less(self):
        # the page faults this avoids come from allocating and freeing
        # these arrays every call; the tracemalloc peak counts them exactly.
        # Both run on one prepared net, as every DDIM step of a chunk does:
        # a call that prepares its own holds about 1 MB more at this batch
        params, state = perturbed_model(TOY, seed=25)
        x, t, c = self.inputs(TOY, 200, 1)
        prepared = dn.prepare(params, state, c, TOY)
        workspace = nn.Workspace()
        dn.forward(params, state, x, t, c, TOY, workspace=workspace)  # warm up

        def peak(**kwargs):
            tracemalloc.start()
            try:
                dn.forward(params, state, x, t, c, TOY, prepared=prepared, **kwargs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(workspace=workspace) <= peak() / 8


class TestPreparedNet:
    """Inference runs on a net prepared once per batch of conditions."""

    inputs = TestWorkspace.inputs

    @pytest.mark.parametrize("config", [TOY, ORACLE_CASES["depth3"][0]],
                             ids=["toy", "depth3"])
    @pytest.mark.parametrize("lent", [False, True], ids=["fresh", "workspace"])
    def test_one_net_serves_every_step_bit_for_bit(self, config, lent):
        # per-row and shared steps and a new x each call, as a chunk's steps
        # run; each call that prepares its own net is the reference
        params, state = perturbed_model(config, seed=31)
        _, _, c = self.inputs(config, 9, 0)
        prepared = dn.prepare(params, state, c, config)
        workspace = nn.Workspace() if lent else None
        for seed in range(4):
            x, t, _ = self.inputs(config, 9, seed)
            own, _, _ = dn.forward(params, state, x, t, c, config, workspace=workspace)
            shared, cache, updates = dn.forward(params, state, x, t, c, config,
                                                workspace=workspace, prepared=prepared)
            assert cache is None and updates == {}
            assert shared.tobytes() == own.tobytes()

    @pytest.mark.parametrize("change", ["batch", "config"])
    def test_a_net_prepared_for_another_call_is_refused(self, change):
        params, state = perturbed_model(TOY, seed=32)
        x, t, c = self.inputs(TOY, 8, 1)
        prepared = dn.prepare(params, state, c, TOY)
        if change == "batch":
            x, t, c = self.inputs(TOY, 7, 1)
            config = TOY
        else:  # the same parameter shapes under another config
            config = dn.DenoiserConfig(input_length=40)
            x = np.concatenate([x, x], axis=2)
        with pytest.raises(ConfigError, match="prepared"):
            dn.forward(params, state, x, t, c, config, prepared=prepared)

    def test_training_refuses_a_prepared_net(self):
        params, state = perturbed_model(TOY, seed=33)
        x, t, c = self.inputs(TOY, 4, 1)
        prepared = dn.prepare(params, state, c, TOY)
        with pytest.raises(ConfigError):
            dn.forward(params, state, x, t, c, TOY, training=True, prepared=prepared)

    def test_non_finite_condition_is_refused_when_prepared(self):
        params, state = perturbed_model(TOY, seed=34)
        _, _, c = self.inputs(TOY, 4, 1)
        c[2, 1] = np.inf
        with pytest.raises(NumericError, match="condition"):
            dn.prepare(params, state, c, TOY)

    def test_arrays_are_read_only_and_outside_the_workspace(self):
        params, state = perturbed_model(TOY, seed=35)
        x, t, c = self.inputs(TOY, 256, 1)
        prepared = dn.prepare(params, state, c, TOY)
        workspace = nn.Workspace()
        dn.forward(params, state, x, t, c, TOY, workspace=workspace, prepared=prepared)
        arrays = [a for group in (prepared.folded, prepared.fusions)
                  for value in group.values() for a in value]
        assert len(prepared.folded) == 2 * TOY.depth + 1
        assert len(prepared.fusions) == 2 * TOY.depth + 1
        assert not any(a.flags.writeable for a in arrays)
        assert not any(np.shares_memory(a, buf) for a in arrays for buf in workspace.buffers)
        # the figure the README gives beside the workspace's 7,274,496 bytes:
        # the level weights are views of the parameters and hold nothing
        held = [a for a in arrays
                if not any(np.shares_memory(a, p) for p in params.values())]
        assert sum(a.nbytes for a in held) == 1_205_504

    def test_nothing_the_net_holds_changes_across_calls(self):
        params, state = perturbed_model(TOY, seed=36)
        x, t, c = self.inputs(TOY, 16, 1)
        prepared = dn.prepare(params, state, c, TOY)
        arrays = [a for group in (prepared.folded, prepared.fusions)
                  for value in group.values() for a in value]
        before = [a.tobytes() for a in arrays]
        for _ in range(2):
            dn.forward(params, state, x, t, c, TOY, workspace=nn.Workspace(),
                       prepared=prepared)
        assert [a.tobytes() for a in arrays] == before


class TestInPlaceKernels:
    """The fused and in-place kernels against their plain expressions."""

    SHAPES = [(20, 16, 64), (10, 32, 7), (5, 3, 1)]  # (L, C, B)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_batchnorm_bit_for_bit(self, shape):
        rng = np.random.default_rng(shape)
        x = rng.normal(1.5, 3.0, size=shape)
        ch = shape[1]
        stats = (rng.normal(size=ch) + 1.0, rng.normal(size=ch),
                 rng.normal(size=ch), rng.uniform(0.5, 2.0, size=ch))
        got = nn.batchnorm(x.copy(), *stats)
        want = oracles.batchnorm_reference(x, *stats)
        for a, b in zip((got[0], *got[1], got[2], got[3]), (want[0], *want[1], want[2], want[3])):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        gy = rng.normal(size=shape)
        got = nn.batchnorm_backward(gy.copy(), got[1])
        want = oracles.batchnorm_backward_reference(gy, want[1])
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_relu_pool_and_upsample_backward(self, shape):
        # backward kernels may give a zero the other sign, which no sum or
        # Adam step can see; every other bit must match
        rng = np.random.default_rng(shape)
        x = rng.normal(size=shape)
        x[:2, 0, 0] = [-0.0, 0.0]
        y, mask = nn.relu(x)
        assert y.tobytes() == np.where(x > 0.0, x, 0.0).tobytes()
        gy = rng.normal(size=shape)
        assert np.array_equal(nn.relu_backward(gy.copy(), mask), np.where(mask, gy, 0.0))
        if shape[0] % 2 == 0:
            half = gy[: shape[0] // 2]
            take = rng.normal(size=half.shape) > 0.0
            assert np.array_equal(nn.maxpool2_backward(half, take),
                                  oracles.maxpool2_backward_reference(half, take))
            assert np.array_equal(nn.upsample2_backward(gy),
                                  oracles.upsample2_backward_reference(gy))

    def test_conv_backward_input_grad_skipped_alike(self):
        rng = np.random.default_rng(3)
        x, w, b = guarded(rng.normal(size=(4, 5, 10)), 1), rng.normal(size=(6, 5, 3)), rng.normal(size=6)
        _, cache = nn.conv1d(x, w, b)
        gy = guarded(rng.normal(size=(4, 6, 10)), 1)
        gx, gw, gb = nn.conv1d_backward(gy, cache)
        none, gw2, gb2 = nn.conv1d_backward(gy, cache, workspace=nn.Workspace(),
                                            input_grad=False)
        assert none is None and gx.shape == x.shape
        assert gw.tobytes() == gw2.tobytes() and gb.tobytes() == gb2.tobytes()


class TestPositionMajorKernels:
    """The guarded position-major kernels against the batch-major references."""

    CASES = [(length, k, batch, ch) for length in (1, 2, 5) for k in (1, 3, 5, 7)
             for batch, ch in ((1, 1), (3, 2))]

    @pytest.mark.parametrize("length,k,batch,ch", CASES)
    def test_conv1d_and_backward(self, length, k, batch, ch):
        rng = np.random.default_rng([length, k, batch, 0xC1])
        pad = (k - 1) // 2
        x = rng.normal(size=(batch, ch, length))
        w, b = rng.normal(size=(3, ch, k)), rng.normal(size=3)
        y, cache = nn.conv1d(guarded(x, pad), w, b)
        ref, ref_cache = oracles.conv1d_bcl(x, w, b)
        assert y.shape == (length + 2 * pad, 3, batch)
        assert not y[:pad].any() and not y[length + pad :].any()
        assert_close(batch_major(y, pad), ref, 1e-13)
        gy = rng.normal(size=ref.shape)
        gx, gw, gb = nn.conv1d_backward(guarded(gy, pad), cache)
        ref_gx, ref_gw, ref_gb = oracles.conv1d_bcl_backward(gy, ref_cache)
        assert gx.shape == (length + 2 * pad, ch, batch)
        assert not gx[:pad].any() and not gx[length + pad :].any()
        assert_close(batch_major(gx, pad), ref_gx, 1e-13)
        assert_close(gw, ref_gw, 1e-13)
        assert_close(gb, ref_gb, 1e-13)

    @pytest.mark.parametrize("length,k,batch,ch", CASES)
    def test_tap_bias_and_backward(self, length, k, batch, ch):
        # the conv of embedding channels tiled along the length axis
        rng = np.random.default_rng([length, k, batch, 0xC2])
        emb, w = rng.normal(size=(batch, ch)), rng.normal(size=(3, ch, k))
        tiled = np.broadcast_to(emb[:, :, None], (batch, ch, length))
        ref, ref_cache = oracles.conv1d_bcl(tiled, w, np.zeros(3))
        y = rng.normal(size=(length, 3, batch))
        start = y.copy()
        cache = nn.tap_bias(y, w, emb)
        assert_close(y - start, ref.transpose(2, 1, 0), 1e-13)
        gy = rng.normal(size=ref.shape)
        gw, gemb = nn.tap_bias_backward(gy.transpose(2, 1, 0).copy(), cache)
        ref_gx, ref_gw, _ = oracles.conv1d_bcl_backward(gy, ref_cache)
        assert_close(gw, ref_gw, 1e-13)
        assert_close(gemb, ref_gx.sum(axis=2), 1e-13)

    @pytest.mark.parametrize("length", [1, 2, 4, 5])
    @pytest.mark.parametrize("batch,ch", [(1, 1), (3, 2)])
    def test_maxpool2_and_upsample2(self, length, batch, ch):
        rng = np.random.default_rng([length, batch, 0xC3])
        x = rng.normal(size=(batch, ch, length))
        if length % 2:
            with pytest.raises(ValueError, match="even length"):
                nn.maxpool2(guarded(x, 0))
        else:
            y, take_second = nn.maxpool2(guarded(x, 0))
            ref, ref_cache = oracles.maxpool2_bcl(x)
            assert np.array_equal(batch_major(y, 0), ref)
            gy = rng.normal(size=ref.shape)
            assert np.array_equal(batch_major(nn.maxpool2_backward(guarded(gy, 0), take_second), 0),
                                  oracles.maxpool2_bcl_backward(gy, ref_cache))
        up = nn.upsample2(guarded(x, 0), np.full((2 * length, ch, batch), np.nan))
        assert np.array_equal(batch_major(up, 0), np.repeat(x, 2, axis=2))
        gy = rng.normal(size=(batch, ch, 2 * length))
        assert np.array_equal(batch_major(nn.upsample2_backward(guarded(gy, 0)), 0),
                              gy.reshape(batch, ch, length, 2).sum(axis=3))

    def test_even_kernel_width_is_refused(self):
        # an even width has no same padding: it would be a one-sided conv
        rng = np.random.default_rng(7)
        x, w = rng.normal(size=(6, 2, 3)), rng.normal(size=(4, 2, 2))
        with pytest.raises(ValueError, match="odd kernel width"):
            nn.conv1d(x, w, np.zeros(4))
        with pytest.raises(ValueError, match="odd kernel width"):
            nn.conv1d_backward(rng.normal(size=(6, 4, 3)), (x, w))


class TestTrainingForwardKernels:
    """The window view, the bias-free conv and the masked pool."""

    def test_windows_are_the_read_only_strided_view(self):
        x = np.random.default_rng(1).normal(size=(9, 4, 3))
        for k in (1, 3, 5, 9):
            view = nn._windows(x, k)
            ref = as_strided(x, (10 - k, k * 4, 3), x.strides, writeable=False)
            assert not view.flags.writeable and np.shares_memory(view, x)
            assert view.shape == ref.shape and view.strides == ref.strides
            assert view.tobytes() == ref.tobytes()
            with pytest.raises(ValueError):
                view[0, 0, 0] = 1.0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv_without_bias_is_a_zero_bias(self, k):
        rng = np.random.default_rng([k, 0xB1])
        x, w = guarded(rng.normal(size=(5, 3, 8)), (k - 1) // 2), rng.normal(size=(4, 3, k))
        none, _ = nn.conv1d(x, w, None)
        zero, _ = nn.conv1d(x, w, np.zeros(4))
        assert none.tobytes() == zero.tobytes()

    def test_masked_pool_keeps_the_selection_bytes_and_mask(self):
        # the max used to be first, then second copied in where second > first
        edge = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1.7976931348623157e308,
                -1.7976931348623157e308]
        pairs = np.array([[a, b] for a in edge for b in edge]).reshape(-1, 1, 1)
        rng = np.random.default_rng(28)
        for x in (pairs, np.round(rng.normal(size=(20, 16, 20)), 1)):
            first, second = x[0::2], x[1::2]
            take_second = np.greater(second, first)
            selected = first.copy()
            np.copyto(selected, second, where=take_second)
            y, mask = nn.maxpool2(x)
            assert y.tobytes() == selected.tobytes()
            assert mask.tobytes() == take_second.tobytes()


class TestConvBias:
    @pytest.mark.parametrize("batch", [1, 64, 200])
    def test_bias_block_adds_the_bytes_of_the_broadcast(self, batch):
        rng = np.random.default_rng([batch, 0xB1])
        x = guarded(rng.normal(size=(batch, 16, 20)), 1)
        w, b = rng.normal(size=(32, 16, 3)), rng.normal(size=32)
        y, _ = nn.conv1d(x, w, b)
        bare, _ = nn.conv1d(x, w, None)
        assert y[1:-1].tobytes() == (bare[1:-1] + b[:, None]).tobytes()
        assert not y[0].any() and not y[-1].any()
        block = rng.normal(size=(32, batch))  # a bias per row
        y, _ = nn.conv1d(x, w, block)
        assert y[1:-1].tobytes() == (bare[1:-1] + block).tobytes()


class TestBackwardVector:
    def test_grads_are_views_of_one_zeroed_vector(self):
        config = tiny_config()
        params, state = perturbed_model(config, seed=31)
        x, t, c = random_batch(config, batch=4, seed=2)
        _, cache, _ = dn.forward(params, state, x, t, c, config, training=True)
        g_out = np.random.default_rng(5).normal(size=x.shape)
        fresh = dn.backward(g_out, cache, params)
        out = np.full(dn.param_count(config), np.nan)  # stale content is cleared
        grads = dn.backward(g_out, cache, params, out=out)
        assert list(grads) == [name for name, _ in dn.param_spec(config)]
        assert all(np.shares_memory(g, out) for g in grads.values())
        assert dn.flatten_params(grads, dn.param_spec(config)).tobytes() == out.tobytes()
        assert all(np.array_equal(grads[k], fresh[k]) for k in fresh)
