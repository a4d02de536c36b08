"""DDIM update oracles, exact-recovery invariants, and bundle round trips."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqlab.denoiser as dn
import pqlab.diffusion as df
import pqlab.sampler as sp
from pqlab.errors import ConfigError, DataError
from pqlab.market_paths import ConditionVector, log_returns, to_prices


def two_step_schedule():
    # abar_1 = 0.81, abar_2 = 0.25
    return df.NoiseSchedule(np.array([0.19, 1.0 - 0.25 / 0.81]))


def tiny_model(seed=0, length=8):
    cfg = dn.DenoiserConfig(
        input_length=length, base_channels=2, depth=1, time_embed_dim=2,
        cond_embed_dim=2, cond_hidden_dim=2,
    )
    params = dn.init_params(cfg, seed=seed)
    return sp.GeneratorModel(params=params, bn_state=dn.init_bn_state(cfg), net=cfg)


def condition(n_trading=6):
    # two calendar days per trading day keeps t_trading <= t_calendar
    return ConditionVector(
        sigma_hist=0.2, r=0.03, t_calendar=2.0 * n_trading / 365.0,
        t_trading=n_trading / 252.0, n_trading=n_trading,
    )


class TestStepSubsequence:
    def test_default_shape(self):
        steps = sp.step_subsequence(1000, 50)
        assert steps.size == 50
        assert steps[0] == 1000
        assert steps[-1] == 1
        assert np.all(np.diff(steps) < 0)

    def test_full_schedule(self):
        steps = sp.step_subsequence(10, 10)
        np.testing.assert_array_equal(steps, np.arange(10, 0, -1))

    def test_single_step(self):
        np.testing.assert_array_equal(sp.step_subsequence(1000, 1), [1000])

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            sp.step_subsequence(100, 0)
        with pytest.raises(ConfigError):
            sp.step_subsequence(100, 101)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 400), st.integers(2, 400))
    def test_endpoints_and_count(self, total, k):
        if k > total:
            total, k = k, total
        steps = sp.step_subsequence(total, k)
        assert steps.size == k
        assert steps[0] == total and steps[-1] == 1
        assert np.all(np.diff(steps) <= -1)


class TestDdimStep:
    def test_hand_oracle(self):
        sched = two_step_schedule()
        x_t = 0.5 * 2.0 + math.sqrt(0.75)  # abar_2 = 0.25, x0 = 2, eps = 1
        out = sp.ddim_step(np.array(x_t), np.array(1.0), 2, 1, sched, 0.0)
        assert abs(float(out) - 2.23589) < 1e-5
        assert abs(float(out) - (1.8 + math.sqrt(0.19))) < 1e-9

    def test_terminal_step_returns_x0_hat(self):
        sched = two_step_schedule()
        rng = np.random.default_rng(0)
        x_t = rng.normal(size=5)
        eps_hat = rng.normal(size=5)
        out = sp.ddim_step(x_t, eps_hat, 1, 0, sched, 0.0)
        x0_hat = df.recover_x0(x_t, eps_hat, "eps", 1, sched)
        np.testing.assert_array_equal(out, x0_hat)

    def test_deterministic_repeat(self):
        sched = two_step_schedule()
        x_t = np.array([0.3, -1.2])
        eps = np.array([0.5, 0.1])
        a = sp.ddim_step(x_t, eps, 2, 1, sched, 0.0)
        b = sp.ddim_step(x_t, eps, 2, 1, sched, 0.0)
        np.testing.assert_array_equal(a, b)

    def test_sigma_bound_enforced(self):
        sched = two_step_schedule()
        # 1 - abar_1 = 0.19 < 0.5^2
        with pytest.raises(ConfigError):
            sp.ddim_step(np.zeros(2), np.zeros(2), 2, 1, sched, 0.5,
                         noise=np.zeros(2))

    def test_stochastic_needs_noise(self):
        sched = two_step_schedule()
        with pytest.raises(ConfigError):
            sp.ddim_step(np.zeros(2), np.zeros(2), 2, 1, sched, 0.1)

    def test_time_order_enforced(self):
        sched = two_step_schedule()
        with pytest.raises(DataError):
            sp.ddim_step(np.zeros(2), np.zeros(2), 1, 2, sched, 0.0)


class TestDdimSigma:
    def test_eta_zero(self):
        assert sp.ddim_sigma(two_step_schedule(), 2, 1, 0.0) == 0.0

    def test_terminal_sigma_zero(self):
        assert sp.ddim_sigma(two_step_schedule(), 1, 0, 1.0) == 0.0

    def test_hand_value(self):
        # sigma^2 = (0.19/0.75) * (1 - 0.25/0.81)
        expected = math.sqrt(0.19 / 0.75 * (1.0 - 0.25 / 0.81))
        got = sp.ddim_sigma(two_step_schedule(), 2, 1, 1.0)
        assert abs(got - expected) < 1e-12

    def test_within_step_bound(self):
        sched = df.build_schedule()
        for t, t_prev in ((1000, 980), (500, 400), (50, 1)):
            sigma = sp.ddim_sigma(sched, t, t_prev, 1.0)
            assert sigma * sigma <= 1.0 - float(sched.alpha_bar_at(t_prev)) + 1e-15

    def test_eta_scales_linearly(self):
        sched = df.build_schedule()
        full = sp.ddim_sigma(sched, 500, 400, 1.0)
        half = sp.ddim_sigma(sched, 500, 400, 0.5)
        assert abs(half - 0.5 * full) < 1e-15


class TestExactOracleRecovery:
    """With the true-noise oracle the reverse chain must reproduce x0."""

    def run_recovery(self, k, sched):
        rng = np.random.default_rng(42)
        x0 = rng.normal(scale=0.7, size=24)
        sa = math.sqrt(float(sched.alpha_bar_at(sched.T)))
        sb = math.sqrt(1.0 - float(sched.alpha_bar_at(sched.T)))
        eps_start = rng.standard_normal(24)
        x_start = sa * x0 + sb * eps_start

        def oracle(x_t, t):
            ab = float(sched.alpha_bar_at(t))
            return (x_t - math.sqrt(ab) * x0) / math.sqrt(1.0 - ab)

        steps = sp.step_subsequence(sched.T, k)
        out = sp.ddim_trajectory(oracle, x_start, sched, steps)
        return np.max(np.abs(out - x0))

    def test_full_schedule_recovers(self):
        sched = df.build_schedule()
        assert self.run_recovery(sched.T, sched) < 1e-8

    def test_skipped_schedules_recover(self):
        sched = df.build_schedule()
        for k in (10, 50):
            assert self.run_recovery(k, sched) < 1e-6

    def test_recovery_is_fast(self):
        sched = df.build_schedule()
        start = time.perf_counter()
        self.run_recovery(50, sched)
        assert time.perf_counter() - start < 1.0

    def test_stochastic_chain_still_centers_on_x0(self):
        # eta > 0 with the exact oracle: noise enters and is then removed by
        # the next oracle call, so the terminal step still lands on x0
        sched = df.build_schedule()
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=8)
        x_start = rng.standard_normal(8)

        def oracle(x_t, t):
            ab = float(sched.alpha_bar_at(t))
            return (x_t - math.sqrt(ab) * x0) / math.sqrt(1.0 - ab)

        steps = sp.step_subsequence(sched.T, 20)
        out = sp.ddim_trajectory(oracle, x_start, sched, steps, eta=1.0,
                                 noise_fn=rng.standard_normal)
        assert np.max(np.abs(out - x0)) < 1e-6


class TestSamplePaths:
    def test_zero_paths(self):
        model = tiny_model()
        cfg = sp.SamplerConfig(num_steps=5, seed=1, n_paths=0)
        out = sp.sample_paths(model, cfg, condition(), df.build_schedule(100))
        assert out.shape == (0, 6)

    def test_shape_truncated_to_condition(self):
        model = tiny_model()
        cfg = sp.SamplerConfig(num_steps=5, seed=1, n_paths=3)
        out = sp.sample_paths(model, cfg, condition(5), df.build_schedule(100))
        assert out.shape == (3, 5)

    def test_seeded_determinism(self):
        model = tiny_model(seed=4)
        cfg = sp.SamplerConfig(num_steps=8, seed=9, n_paths=7)
        sched = df.build_schedule(100)
        a = sp.sample_paths(model, cfg, condition(), sched)
        b = sp.sample_paths(model, cfg, condition(), sched)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_n_paths_changes_paths_only_by_rounding(self, eta):
        # a non-zero head, so the network's output reaches the paths
        base = tiny_model(seed=4)
        rng = np.random.default_rng(0)
        params = {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in base.params.items()}
        model = sp.GeneratorModel(params=params, bn_state=base.bn_state, net=base.net)
        sched = df.build_schedule(100)

        def run(n_paths):
            cfg = sp.SamplerConfig(num_steps=8, eta=eta, seed=3, n_paths=n_paths)
            return sp.sample_paths(model, cfg, condition(), sched)

        many = run(sp.SAMPLE_CHUNK + 44)  # two chunks
        np.testing.assert_array_equal(many, run(sp.SAMPLE_CHUNK + 44))
        np.testing.assert_allclose(run(10), many[:10], rtol=1e-12, atol=1e-15)

    def test_one_workspace_per_chunk_changes_nothing(self, monkeypatch):
        base = tiny_model(seed=4)
        rng = np.random.default_rng(1)
        params = {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in base.params.items()}
        model = sp.GeneratorModel(params=params, bn_state=base.bn_state, net=base.net)
        cfg = sp.SamplerConfig(num_steps=5, eta=1.0, seed=2, n_paths=sp.SAMPLE_CHUNK + 9)
        sched = df.build_schedule(100)
        lent = sp.sample_paths(model, cfg, condition(), sched)

        forward = dn.forward
        seen = []

        def without_workspace(*args, workspace, **kwargs):
            seen.append((workspace, args[2].shape[0]))
            return forward(*args, **kwargs)

        monkeypatch.setattr(dn, "forward", without_workspace)
        fresh = sp.sample_paths(model, cfg, condition(), sched)
        assert lent.tobytes() == fresh.tobytes()
        # five steps per chunk share one workspace; the two chunks do not
        assert len(seen) == 10
        assert len({id(w) for w, _ in seen[:5]}) == len({id(w) for w, _ in seen[5:]}) == 1
        assert seen[0][0] is not seen[5][0]
        assert [b for _, b in seen] == [sp.SAMPLE_CHUNK] * 5 + [9] * 5

    def test_seed_changes_output(self):
        model = tiny_model(seed=4)
        sched = df.build_schedule(100)
        a = sp.sample_paths(model, sp.SamplerConfig(num_steps=8, seed=1, n_paths=2),
                            condition(), sched)
        b = sp.sample_paths(model, sp.SamplerConfig(num_steps=8, seed=2, n_paths=2),
                            condition(), sched)
        assert np.any(a != b)

    def test_untrained_params_are_robust(self):
        model = tiny_model(seed=100)
        cfg = sp.SamplerConfig(num_steps=10, seed=0, n_paths=1000)
        out = sp.sample_paths(model, cfg, condition(8), df.build_schedule(200))
        assert out.shape == (1000, 8)
        assert np.all(np.isfinite(out))

    def test_stochastic_sampling_reproducible(self):
        model = tiny_model(seed=5)
        cfg = sp.SamplerConfig(num_steps=6, eta=1.0, seed=11, n_paths=4)
        sched = df.build_schedule(100)
        a = sp.sample_paths(model, cfg, condition(), sched)
        b = sp.sample_paths(model, cfg, condition(), sched)
        np.testing.assert_array_equal(a, b)
        det = sp.sample_paths(model, sp.SamplerConfig(num_steps=6, seed=11, n_paths=4),
                              condition(), sched)
        assert np.any(a != det)

    def test_return_scale_multiplies_output(self):
        cfg_net = tiny_model(seed=4)
        scaled = sp.GeneratorModel(
            params=cfg_net.params, bn_state=cfg_net.bn_state, net=cfg_net.net,
            return_scale=2.5,
        )
        sched = df.build_schedule(100)
        run = sp.SamplerConfig(num_steps=8, seed=9, n_paths=2)
        base = sp.sample_paths(cfg_net, run, condition(), sched)
        wide = sp.sample_paths(scaled, run, condition(), sched)
        np.testing.assert_allclose(wide, 2.5 * base, rtol=1e-12)

    def test_condition_longer_than_net_rejected(self):
        model = tiny_model()
        cfg = sp.SamplerConfig(num_steps=5, seed=1, n_paths=1)
        with pytest.raises(ConfigError):
            sp.sample_paths(model, cfg, condition(20), df.build_schedule(100))

    def test_too_many_steps_rejected(self):
        model = tiny_model()
        cfg = sp.SamplerConfig(num_steps=200, seed=1, n_paths=1)
        with pytest.raises(ConfigError):
            sp.sample_paths(model, cfg, condition(), df.build_schedule(100))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            sp.SamplerConfig(num_steps=0)
        with pytest.raises(ConfigError):
            sp.SamplerConfig(eta=1.5)
        with pytest.raises(ConfigError):
            sp.SamplerConfig(n_paths=-1)
        with pytest.raises(ConfigError):
            sp.GeneratorModel(params={}, bn_state={}, net=tiny_model().net,
                              mode="score")


class TestToPrices:
    def test_single_step(self):
        out = to_prices(100.0, np.array([math.log(1.1)]))
        np.testing.assert_allclose(out, [110.0], rtol=1e-12)

    def test_round_trip(self):
        closes = np.array([100.0, 103.5, 99.2, 101.7])
        rebuilt = to_prices(closes[0], log_returns(closes))
        np.testing.assert_allclose(rebuilt, closes[1:], rtol=1e-12)

    def test_strictly_positive(self):
        out = to_prices(50.0, np.array([-30.0, -30.0]))
        assert np.all(out > 0.0)

    def test_bad_s0_rejected(self):
        with pytest.raises(DataError):
            to_prices(0.0, np.array([0.1]))


class TestPathBundle:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        paths = rng.normal(scale=0.01, size=(4, 6))
        cfg = sp.SamplerConfig(num_steps=10, seed=3, n_paths=4)
        target = tmp_path / "bundle.csv"
        sp.write_path_bundle(target, paths, condition(), cfg)
        loaded, manifest = sp.read_path_bundle(target)
        np.testing.assert_array_equal(loaded, paths)
        assert manifest["seed"] == "3"
        assert manifest["n_trading"] == "6"

    def test_header_and_one_based_steps(self, tmp_path):
        target = tmp_path / "bundle.csv"
        sp.write_path_bundle(target, np.array([[0.5]]), condition(1),
                             sp.SamplerConfig(n_paths=1))
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "path_id,step,log_return"
        assert lines[1] == "0,1,0.5"

    def test_incomplete_grid_rejected(self, tmp_path):
        target = tmp_path / "bundle.csv"
        sp.write_path_bundle(target, np.zeros((2, 3)), condition(3),
                             sp.SamplerConfig(n_paths=2))
        lines = target.read_text().splitlines()
        (tmp_path / "bundle.csv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError):
            sp.read_path_bundle(target)

    def test_repeated_cell_rejected(self, tmp_path):
        # one path, two steps, and the cell (0, 1) written twice: the last
        # row used to win silently
        target = tmp_path / "bundle.csv"
        sp.write_path_bundle(target, np.array([[0.01, 0.02]]), condition(2),
                             sp.SamplerConfig(n_paths=1))
        with open(target, "a") as fh:
            fh.write("0,1,0.5\n")
        with pytest.raises(DataError, match="3 data rows for a 1 x 2 grid"):
            sp.read_path_bundle(target)

    @pytest.mark.parametrize("key, value", [
        ("n_paths", None), ("n_paths", "two"), ("n_paths", "-1"),
        ("n_steps", None), ("n_steps", "3.5"),
    ])
    def test_bad_manifest_count_rejected(self, tmp_path, key, value):
        target = tmp_path / "bundle.csv"
        sp.write_path_bundle(target, np.zeros((2, 3)), condition(3),
                             sp.SamplerConfig(n_paths=2))
        manifest = tmp_path / "bundle.csv.manifest"
        lines = [ln for ln in manifest.read_text().splitlines()
                 if not ln.startswith(key + "=")]
        if value is not None:
            lines.append(f"{key}={value}")
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=key):
            sp.read_path_bundle(target)

    @pytest.mark.parametrize("row", ["0,1,abc", "0,x,0.5", "0,1", "0,1,0.5,7"])
    def test_bad_row_rejected(self, tmp_path, row):
        target = tmp_path / "bundle.csv"
        sp.write_path_bundle(target, np.zeros((1, 1)), condition(1),
                             sp.SamplerConfig(n_paths=1))
        target.write_text("path_id,step,log_return\n" + row + "\n")
        with pytest.raises(DataError, match="bad row"):
            sp.read_path_bundle(target)

    @pytest.mark.parametrize("n_paths, n_steps", [(2**40, 2**20), (0, 2**62)])
    def test_huge_grid_claim_rejected(self, tmp_path, n_paths, n_steps):
        # counted before the grid is allocated: numpy refuses these shapes
        target = tmp_path / "bundle.csv"
        sp.write_path_bundle(target, np.zeros((1, 1)), condition(1),
                             sp.SamplerConfig(n_paths=1))
        if n_paths == 0:
            target.write_text("path_id,step,log_return\n")
        manifest = tmp_path / "bundle.csv.manifest"
        manifest.write_text(f"n_paths={n_paths}\nn_steps={n_steps}\n")
        with pytest.raises(DataError):
            sp.read_path_bundle(target)

    def test_oversized_field_rejected(self, tmp_path):
        # the csv module refuses a field over 131,072 characters
        target = tmp_path / "bundle.csv"
        sp.write_path_bundle(target, np.zeros((1, 1)), condition(1),
                             sp.SamplerConfig(n_paths=1))
        target.write_text("path_id,step,log_return\n0,1," + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match="field larger"):
            sp.read_path_bundle(target)

    def test_non_utf8_manifest_rejected(self, tmp_path):
        target = tmp_path / "bundle.csv"
        sp.write_path_bundle(target, np.zeros((1, 1)), condition(1),
                             sp.SamplerConfig(n_paths=1))
        with open(tmp_path / "bundle.csv.manifest", "ab") as fh:
            fh.write(b"note=\xff\n")
        with pytest.raises(DataError, match="manifest"):
            sp.read_path_bundle(target)



# cell texts that parse, half-parse or do not: NaN/inf, overflow, blanks,
# hex and digit separators, plus every float repr and small integers
BUNDLE_CELLS = (st.sampled_from(["nan", "inf", "-inf", "1e309", "", " ", "abc", "0x1",
                                 "1_0", "-0.0", "1.", "\x00", '"0"'])
                | st.floats().map(repr) | st.integers(-2, 12).map(str))
CSV_LINES = st.lists(BUNDLE_CELLS, max_size=4).map(",".join)
# grid claims stay at 100 x 100 = 10**4 cells or fewer
MANIFEST_LINES = (st.tuples(st.sampled_from(["n_paths", "n_steps", "seed", "n_trading"]),
                            st.integers(-2, 100).map(str) | BUNDLE_CELLS).map("=".join)
                  | BUNDLE_CELLS)


def fuzzed(real: bytes, extra_lines):
    """The real file, a truncation of it, arbitrary bytes, or its lines with
    some dropped (missing keys and cells) and ``extra_lines`` added."""
    lines = real.decode("utf-8").splitlines()
    return st.one_of(
        st.just(real),
        st.integers(0, len(real)).map(lambda cut: real[:cut]),
        st.binary(max_size=80),
        st.tuples(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)),
                  st.lists(extra_lines, max_size=4)).map(
            lambda keep_add: "\n".join(
                [ln for ln, keep in zip(lines, keep_add[0]) if keep] + keep_add[1]
            ).encode("utf-8")),
    )


class TestFuzzedBundle:
    """``read_path_bundle`` yields a finite n_paths x n_steps grid or a DataError."""

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_grid_or_data_error(self, tmp_path_factory, data):
        shape = data.draw(st.tuples(st.integers(0, 3), st.integers(1, 4)), label="shape")
        target = tmp_path_factory.getbasetemp() / "fuzzed_bundle.csv"
        manifest = target.with_name(target.name + ".manifest")
        sp.write_path_bundle(target, np.full(shape, 0.01), condition(shape[1]),
                             sp.SamplerConfig(n_paths=shape[0]))
        for path, extra_lines in ((target, CSV_LINES), (manifest, MANIFEST_LINES)):
            path.write_bytes(data.draw(fuzzed(path.read_bytes(), extra_lines),
                                       label=path.name))
        try:
            loaded, entries = sp.read_path_bundle(target)
        except DataError:
            return
        assert loaded.shape == (int(entries["n_paths"]), int(entries["n_steps"]))
        assert np.isfinite(loaded).all()
