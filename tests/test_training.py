"""Optimizer oracles, bitwise resume, and checkpoint round trips."""

import dataclasses
import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqlab.denoiser as dn
import pqlab.nn as nn
import pqlab.diffusion as diff
import pqlab.market_paths as mp
import pqlab.training as tr
from pqlab.errors import ConfigError, DataError, NumericError
from pqlab.objectives import LossConfig


@pytest.fixture(scope="module")
def dataset():
    series = mp.synthesize_series(mp.GeneratorConfig(n_days=400), seed=3)
    rates = {
        30: mp.RateTable(
            30, np.array(["2015-01-01"], dtype="datetime64[D]"), np.array([0.03])
        )
    }
    return mp.slice_dataset(series, rates, [30], "2015-12-01")


def tiny_net(length=24):
    return dn.DenoiserConfig(
        input_length=length, base_channels=4, depth=2,
        time_embed_dim=4, cond_embed_dim=4, cond_hidden_dim=8,
    )


def fresh_state(dataset, seed=0, mode="v"):
    scale = tr.compute_return_scale(dataset.train)
    return tr.init_state(tiny_net(), diff.build_schedule(50), mode, scale, seed)


def params_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def bits_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(a[k].tobytes() == b[k].tobytes() for k in a)


class Rows:
    def __init__(self):
        self.rows = []

    def write(self, s):
        self.rows.append(s)


class TestReturnScale:
    def test_pooled_population_std(self, dataset):
        sl = dataset.train[:2]
        pooled = np.concatenate([s.log_returns for s in sl])
        assert tr.compute_return_scale(sl) == float(np.std(pooled))

    def test_hand_value(self, dataset):
        s = dataset.train[0]
        one = [s]
        assert abs(tr.compute_return_scale(one) - float(np.std(s.log_returns))) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            tr.compute_return_scale([])

    def test_zero_spread_rejected(self, dataset):
        s = dataset.train[0]
        flat = mp.PathSlice(
            s0=s.s0, log_returns=np.zeros_like(s.log_returns),
            condition=s.condition, window_calendar_days=s.window_calendar_days,
            start_date=s.start_date,
        )
        with pytest.raises(DataError):
            tr.compute_return_scale([flat])


class TestMakeBatch:
    def test_shapes_and_scaling(self, dataset):
        rng = np.random.default_rng(0)
        padded = tr.pad_slices(dataset.train, 24, 2.0)
        x0, mask, cond = tr.make_batch(padded, rng, 6)
        assert x0.shape == (6, 24) and mask.shape == (6, 24) and cond.shape == (6, 5)
        for row in range(6):
            n = int(mask[row].sum())
            assert mask[row, :n].all() and not mask[row, n:].any()
            assert np.all(x0[row, n:] == 0.0)
        # row contents must be some slice's returns divided by the scale
        rng2 = np.random.default_rng(0)
        idx = rng2.integers(0, len(dataset.train), size=6)
        s = dataset.train[int(idx[0])]
        n = s.condition.n_trading
        assert np.array_equal(x0[0, :n], s.log_returns / 2.0)
        assert np.array_equal(cond[0], s.condition.as_array())

    def test_slice_longer_than_network_rejected(self, dataset):
        with pytest.raises(ConfigError):
            tr.pad_slices(dataset.train, 4, 1.0)


class TestClip:
    def test_above_norm_scales_to_max(self):
        grads = {"a": np.array([3.0, 4.0])}
        clipped, norm = tr.clip_global_norm(grads, 1.0)
        assert norm == 5.0
        assert np.allclose(clipped["a"], [0.6, 0.8])

    def test_below_norm_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        clipped, norm = tr.clip_global_norm(grads, 1.0)
        assert norm == 0.5
        assert np.array_equal(clipped["a"], grads["a"])

    def test_norm_spans_keys(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        _, norm = tr.clip_global_norm(grads, 10.0)
        assert norm == 5.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
           st.floats(0.1, 5.0))
    @settings(max_examples=50)
    def test_result_never_exceeds_max(self, values, max_norm):
        grads = {"g": np.array(values)}
        clipped, _ = tr.clip_global_norm(grads, max_norm)
        out = math.sqrt(float(np.sum(clipped["g"] ** 2)))
        assert out <= max_norm * (1.0 + 1e-12)


class TestAdam:
    # every entry of the flat state starts at p0 and sees the same gradient,
    # so each one must follow the one-parameter hand oracle
    def make_state(self, p0):
        state = tr.init_state(tiny_net(), diff.build_schedule(10), "v", 1.0, 0)
        state.flat_params[:] = p0
        return state

    def grads(self, state, g):
        return np.full_like(state.flat_params, g)

    def test_first_step_hand_oracle(self):
        state = self.make_state(0.0)
        tr.adam_update(state, self.grads(state, 1.0), lr=1e-3, step=1)
        # m_hat = 1, v_hat = 1 after bias correction
        expected = -1e-3 / (1.0 + tr.ADAM_EPS)
        assert np.all(np.abs(state.flat_params - expected) < 1e-18)
        assert np.all(state.flat_adam_m == 1.0 - tr.ADAM_BETA1)
        assert np.all(state.flat_adam_v == 1.0 - tr.ADAM_BETA2)
        assert state.step == 1

    def test_descends_constant_gradient(self):
        state = self.make_state(5.0)
        for step in range(1, 50):
            tr.adam_update(state, self.grads(state, 2.0), lr=1e-2, step=step)
        assert np.all(state.flat_params < 5.0)

    def test_zero_gradient_keeps_params(self):
        state = self.make_state(1.25)
        tr.adam_update(state, self.grads(state, 0.0), lr=1e-3, step=1)
        assert np.all(state.flat_params == 1.25)


class TestTrainLoop:
    def test_zero_steps_is_identity(self, dataset):
        state = fresh_state(dataset)
        init = {k: v.copy() for k, v in state.params.items()}
        rows = Rows()
        tr.train(dataset.train, state, tr.TrainConfig(steps=0), log_fh=rows)
        assert state.step == 0
        assert params_equal(state.params, init)
        assert rows.rows == []

    def test_bitwise_repeatable(self, dataset):
        cfg = tr.TrainConfig(steps=8, batch_size=4, seed=11)
        a = tr.train(dataset.train, fresh_state(dataset, seed=1), cfg)
        b = tr.train(dataset.train, fresh_state(dataset, seed=1), cfg)
        assert params_equal(a.params, b.params)
        assert params_equal(a.bn_state, b.bn_state)
        assert np.array_equal(a.flat_adam_m, b.flat_adam_m)

    def test_seed_changes_run(self, dataset):
        a = tr.train(dataset.train, fresh_state(dataset, seed=1),
                     tr.TrainConfig(steps=4, batch_size=4, seed=0))
        b = tr.train(dataset.train, fresh_state(dataset, seed=1),
                     tr.TrainConfig(steps=4, batch_size=4, seed=1))
        assert not params_equal(a.params, b.params)

    def test_loss_csv_rows(self, dataset):
        rows = Rows()
        tr.train(dataset.train, fresh_state(dataset),
                 tr.TrainConfig(steps=5, batch_size=4), log_fh=rows)
        assert len(rows.rows) == 5
        first = rows.rows[0].strip().split(",")
        assert first[0] == "1"
        assert len(first) == len("step,core,jump,vol,gvol,kurt,drift,pinball,spectral,total".split(","))
        for cell in first[1:]:
            float(cell)

    def test_core_loss_decreases(self, dataset):
        rows = Rows()
        cfg = tr.TrainConfig(steps=120, batch_size=8, seed=2)
        tr.train(dataset.train, fresh_state(dataset, seed=2), cfg, log_fh=rows)
        core = [float(r.split(",")[1]) for r in rows.rows]
        early = np.mean(core[:10])
        late = np.mean(core[-10:])
        assert late < early

    def test_checkpoint_cadence(self, dataset):
        hits = []
        cfg = tr.TrainConfig(steps=12, batch_size=4, checkpoint_every=5)
        tr.train(dataset.train, fresh_state(dataset), cfg,
                 checkpoint_fn=lambda s: hits.append(s.step))
        assert hits == [5, 10]

    def test_empty_slices_rejected(self, dataset):
        with pytest.raises(DataError):
            tr.train([], fresh_state(dataset), tr.TrainConfig(steps=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_raises(self, dataset):
        state = fresh_state(dataset)
        state.params["head.b"] = np.array([np.inf])
        with pytest.raises(NumericError):
            tr.train_step(tr.pad_slices(dataset.train, 24, state.return_scale), state,
                          tr.TrainConfig(steps=1), 1)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(steps=-1)
        with pytest.raises(ConfigError):
            tr.TrainConfig(steps=1, batch_size=0)
        with pytest.raises(ConfigError):
            tr.TrainConfig(steps=1, lr=0.0)
        with pytest.raises(ConfigError):
            tr.TrainConfig(steps=1, clip_norm=0.0)
        with pytest.raises(ConfigError):
            tr.TrainConfig(steps=1, seed=-1)
        with pytest.raises(ConfigError):
            tr.init_state(tiny_net(), diff.build_schedule(50), "noise", 1.0, 0)


class TestResume:
    def test_resume_matches_straight_run(self, dataset, tmp_path):
        cfg = tr.TrainConfig(steps=16, batch_size=4, seed=5)

        straight_rows = Rows()
        straight = tr.train(dataset.train, fresh_state(dataset, seed=3), cfg,
                            log_fh=straight_rows)

        half_rows = Rows()
        half = fresh_state(dataset, seed=3)
        tr.train(dataset.train, half, cfg, log_fh=half_rows, stop_step=8)
        assert half.step == 8
        ckpt = tmp_path / "half.npz"
        tr.save_checkpoint(ckpt, half)

        resumed = tr.load_checkpoint(ckpt)
        resumed_rows = Rows()
        tr.train(dataset.train, resumed, cfg, log_fh=resumed_rows)

        assert params_equal(straight.params, resumed.params)
        assert params_equal(straight.bn_state, resumed.bn_state)
        assert np.array_equal(straight.flat_adam_m, resumed.flat_adam_m)
        assert np.array_equal(straight.flat_adam_v, resumed.flat_adam_v)
        assert straight.step == resumed.step == 16
        assert half_rows.rows + resumed_rows.rows == straight_rows.rows

    def test_resumed_trace_rows_match_straight_run(self, dataset, tmp_path):
        cfg = tr.TrainConfig(steps=10, batch_size=4, seed=5)
        straight = Rows()
        tr.train(dataset.train, fresh_state(dataset, seed=3), cfg, trace_fh=straight)
        half, rest = Rows(), Rows()
        state = fresh_state(dataset, seed=3)
        tr.train(dataset.train, state, cfg, trace_fh=half, stop_step=4)
        tr.save_checkpoint(tmp_path / "half.npz", state)
        tr.train(dataset.train, tr.load_checkpoint(tmp_path / "half.npz"), cfg, trace_fh=rest)
        assert half.rows + rest.rows == straight.rows
        assert [r.split(",")[0] for r in straight.rows] == [f"{i}" for i in range(1, 11)]


class TestFlatState:
    """The flat parameter/moment vectors, their views, and the step's workspace."""

    def test_twenty_steps_equal_the_dict_oracle(self, dataset):
        # the per-parameter dict loop (today's clip and Adam on new arrays)
        # and the flat-vector loop must agree bit for bit
        cfg = tr.TrainConfig(steps=20, batch_size=8, seed=7, clip_norm=0.5)
        state = fresh_state(dataset, seed=6)
        init_params = {k: v.copy() for k, v in state.params.items()}
        init_bn = {k: v.copy() for k, v in state.bn_state.items()}
        rows, trace = Rows(), Rows()
        tr.train(dataset.train, state, cfg, log_fh=rows, trace_fh=trace)
        params, adam_m, adam_v, bn_state, ref_rows, ref_trace = oracles.train_reference(
            dataset.train, init_params, init_bn, state.net, state.sched, state.mode,
            state.return_scale, cfg, LossConfig(), cfg.steps)
        assert bits_equal(state.params, params)
        spec = dn.param_spec(state.net)
        assert bits_equal(dn.unflatten_params(state.flat_adam_m, spec), adam_m)
        assert bits_equal(dn.unflatten_params(state.flat_adam_v, spec), adam_v)
        assert bits_equal(state.bn_state, bn_state)
        assert [r.rstrip("\n") for r in rows.rows] == ref_rows
        cells = [r.rstrip("\n").split(",") for r in trace.rows]
        assert [(float(c[1]), c[2]) for c in cells] == [
            (norm, str(int(clipped))) for norm, clipped in ref_trace]
        assert 0 < sum(clipped for _, clipped in ref_trace) < cfg.steps

    def test_views_share_memory_with_the_flat_vectors(self, dataset, tmp_path):
        def check(state):
            views, flat = state.params, state.flat_params
            assert list(views) == [name for name, _ in dn.param_spec(state.net)]
            assert all(np.shares_memory(v, flat) for v in views.values())
            assert dn.flatten_params(views, dn.param_spec(state.net)).tobytes() \
                == flat.tobytes()
            for vector in (state.flat_params, state.flat_adam_m, state.flat_adam_v):
                assert vector.dtype == np.float64 and vector.flags.c_contiguous
                assert vector.shape == (dn.param_count(state.net),)

        state = tr.train(dataset.train, fresh_state(dataset, seed=4),
                         tr.TrainConfig(steps=3, batch_size=4, seed=4))
        check(state)
        tr.save_checkpoint(tmp_path / "ckpt.npz", state)
        back = tr.load_checkpoint(tmp_path / "ckpt.npz")
        check(back)
        back.flat_params[:] = 0.5
        assert all(np.all(v == 0.5) for v in back.params.values())
        # a vector of another dtype is converted first, and the views follow it
        check(dataclasses.replace(back, flat_adam_m=back.flat_adam_m.astype(np.float32)))
        check(dataclasses.replace(back, flat_params=back.flat_params.astype(np.float32)))

    @pytest.mark.parametrize("name", ["flat_adam_m", "flat_adam_v"])
    def test_moment_of_another_length_rejected(self, dataset, name):
        state = fresh_state(dataset)
        with pytest.raises(DataError, match=name):
            dataclasses.replace(state, **{name: getattr(state, name)[:-1]})

    def test_second_step_reuses_the_workspace(self, dataset):
        cfg = tr.TrainConfig(steps=2, batch_size=4, seed=8)
        with_ws, without = fresh_state(dataset, seed=8), fresh_state(dataset, seed=8)
        padded = tr.pad_slices(dataset.train, with_ws.net.input_length, with_ws.return_scale)
        workspace = nn.Workspace()
        tr.train_step(padded, with_ws, cfg, 1, workspace=workspace)
        first = workspace.buffers
        assert len(first) >= 3  # the gradient vector, Adam's scratch, the conv buffer
        tr.train_step(padded, with_ws, cfg, 2, workspace=workspace)
        assert len(workspace.buffers) == len(first)
        assert all(a is b for a, b in zip(workspace.buffers, first))
        for step in (1, 2):
            tr.train_step(padded, without, cfg, step)
        assert bits_equal(with_ws.params, without.params)
        assert with_ws.flat_adam_v.tobytes() == without.flat_adam_v.tobytes()

    def test_train_passes_one_workspace_to_every_step(self, dataset, monkeypatch):
        seen = []
        step = tr.train_step

        def spy(*args):
            seen.append(args[5])
            return step(*args)

        monkeypatch.setattr(tr, "train_step", spy)
        tr.train(dataset.train, fresh_state(dataset), tr.TrainConfig(steps=3, batch_size=4))
        assert len(seen) == 3 and isinstance(seen[0], nn.Workspace)
        assert all(ws is seen[0] for ws in seen)


class TestCheckpoint:
    def test_round_trip_bitwise(self, dataset, tmp_path):
        state = tr.train(dataset.train, fresh_state(dataset, seed=4),
                         tr.TrainConfig(steps=3, batch_size=4, seed=4))
        path = tmp_path / "ckpt.npz"
        tr.save_checkpoint(path, state)
        back = tr.load_checkpoint(path)
        assert params_equal(state.params, back.params)
        assert params_equal(state.bn_state, back.bn_state)
        assert np.array_equal(state.flat_adam_m, back.flat_adam_m)
        assert np.array_equal(state.flat_adam_v, back.flat_adam_v)
        assert back.step == state.step
        assert back.net == state.net
        assert back.mode == state.mode
        assert back.return_scale == state.return_scale
        assert np.array_equal(back.sched.beta, state.sched.beta)

    def test_untrained_checkpoint_equals_initialization(self, dataset, tmp_path):
        state = fresh_state(dataset, seed=9)
        path = tmp_path / "init.npz"
        tr.save_checkpoint(path, state)
        back = tr.load_checkpoint(path)
        fresh = fresh_state(dataset, seed=9)
        assert params_equal(back.params, fresh.params)
        assert back.step == 0

    def test_save_is_byte_deterministic(self, dataset, tmp_path):
        state = fresh_state(dataset, seed=2)
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        tr.save_checkpoint(a, state)
        tr.save_checkpoint(b, state)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_text("not an archive")
        with pytest.raises(DataError):
            tr.load_checkpoint(path)

    def test_wrong_version_rejected(self, dataset, tmp_path):
        state = fresh_state(dataset)
        path = tmp_path / "v0.npz"
        tr.save_checkpoint(path, state)
        data = dict(np.load(path))
        data["version"] = np.array("PQLAB-CKPT v0")
        np.savez(path, **data)
        with pytest.raises(DataError):
            tr.load_checkpoint(path)

    def test_layout_tamper_rejected(self, dataset, tmp_path):
        state = fresh_state(dataset)
        path = tmp_path / "tampered.npz"
        tr.save_checkpoint(path, state)
        data = dict(np.load(path))
        names = [str(n) for n in data["param_names"]]
        names[0], names[1] = names[1], names[0]
        data["param_names"] = np.array(names)
        np.savez(path, **data)
        with pytest.raises(DataError):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("entry", ["params", "adam_m", "bn_values"])
    def test_truncated_vector_rejected(self, dataset, tmp_path, entry):
        path = tmp_path / "short.npz"
        tr.save_checkpoint(path, fresh_state(dataset))
        data = dict(np.load(path))
        data[entry] = data[entry][:-1]
        np.savez(path, **data)
        with pytest.raises(DataError):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("step", -1),
        ("mode", "score"),
        ("beta", "out_of_range"),
        ("beta", "nan"),
        ("return_scale", np.nan),
        ("return_scale", np.inf),
        ("return_scale", -1.0),
        ("params", np.nan),
        ("adam_m", np.nan),
        ("adam_v", np.inf),
        ("adam_v", -1e-300),
        ("bn_values", np.nan),
        ("bn_values", -0.5),  # the last entry is a running variance
    ])
    def test_tampered_field_rejected(self, dataset, tmp_path, key, value):
        path = tmp_path / "tampered.npz"
        tr.save_checkpoint(path, fresh_state(dataset))
        data = dict(np.load(path))
        if key == "beta":
            data[key] = data[key].copy()
            data[key][-1] = 1.0 if value == "out_of_range" else np.nan
        elif key in ("params", "adam_m", "adam_v", "bn_values"):
            data[key] = data[key].copy()
            data[key][-1] = value
        else:
            data[key] = np.asarray(value, dtype=data[key].dtype)
        np.savez(path, **data)
        with pytest.raises(DataError, match=key):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("step", [1, 2]),
        ("step", 2.5),
        ("return_scale", [1.0, 2.0]),
        ("return_scale", "0.01"),
        ("mode", ["v"]),
        ("net_config", ["{}"]),
        ("param_names", "enc0.conv1.w"),
        ("bn_names", "enc0.bn1.mean"),
        ("params", [[0.0]]),
        ("adam_v", ["0.0"]),
        ("beta", [[0.1]]),
    ])
    def test_wrong_shape_or_kind_rejected(self, dataset, tmp_path, key, value):
        path = tmp_path / "tampered.npz"
        tr.save_checkpoint(path, fresh_state(dataset))
        data = dict(np.load(path))
        data[key] = np.asarray(value)
        np.savez(path, **data)
        with pytest.raises(DataError, match=f"{key} must be a [01]-d array") as info:
            tr.load_checkpoint(path)
        assert "tampered.npz" in str(info.value)

    @pytest.mark.parametrize("net_config", ['{"input_length": 20, "width": 3}',
                                            '[20, 16]', '{"input_length":',
                                            '{"input_length": 20, "depth": 0}'])
    def test_bad_net_config_rejected(self, dataset, tmp_path, net_config):
        path = tmp_path / "net.npz"
        tr.save_checkpoint(path, fresh_state(dataset))
        data = dict(np.load(path))
        data["net_config"] = np.array(net_config)
        np.savez(path, **data)
        with pytest.raises(DataError):
            tr.load_checkpoint(path)

    def test_model_view(self, dataset):
        state = fresh_state(dataset)
        model = state.model()
        assert model.params is state.params
        assert model.net == state.net
        assert model.mode == "v"
        assert model.return_scale == state.return_scale
