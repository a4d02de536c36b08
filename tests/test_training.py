"""Optimizer oracles, bitwise resume, and checkpoint round trips."""

import dataclasses
import itertools
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
from pqlab.objectives import LossConfig, format_loss_row


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


def train_all(slices, state, config, loss=LossConfig()):
    """``state`` after every step of ``tr.steps``, and the (step, breakdown, norm) it yielded."""
    return state, list(tr.steps(slices, state, config, loss))


def loss_rows(yielded):
    return [format_loss_row(step, breakdown) for step, breakdown, _ in yielded]


def trace_rows(yielded, max_norm):
    return [tr.format_trace_row(step, norm, max_norm, breakdown)
            for step, breakdown, norm in yielded]


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
        x0, mask, cond, idx = tr.make_batch(padded, rng, 6)
        assert x0.shape == (6, 24) and mask.shape == (6, 24) and cond.shape == (6, 5)
        assert np.array_equal(x0, padded.x0[idx]) and np.array_equal(cond, padded.cond[idx])
        for row in range(6):
            n = int(mask[row].sum())
            assert mask[row, :n].all() and not mask[row, n:].any()
            assert np.all(x0[row, n:] == 0.0)
        # row contents must be some slice's returns divided by the scale
        rng2 = np.random.default_rng(0)
        assert np.array_equal(idx, rng2.integers(0, len(dataset.train), size=6))
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
        assert list(tr.steps(dataset.train, state, tr.TrainConfig(steps=0))) == []
        assert state.step == 0
        assert params_equal(state.params, init)

    def test_bitwise_repeatable(self, dataset):
        cfg = tr.TrainConfig(steps=8, batch_size=4, seed=11)
        a, _ = train_all(dataset.train, fresh_state(dataset, seed=1), cfg)
        b, _ = train_all(dataset.train, fresh_state(dataset, seed=1), cfg)
        assert params_equal(a.params, b.params)
        assert params_equal(a.bn_state, b.bn_state)
        assert np.array_equal(a.flat_adam_m, b.flat_adam_m)

    def test_seed_changes_run(self, dataset):
        a, _ = train_all(dataset.train, fresh_state(dataset, seed=1),
                         tr.TrainConfig(steps=4, batch_size=4, seed=0))
        b, _ = train_all(dataset.train, fresh_state(dataset, seed=1),
                         tr.TrainConfig(steps=4, batch_size=4, seed=1))
        assert not params_equal(a.params, b.params)

    def test_loss_csv_rows(self, dataset):
        _, yielded = train_all(dataset.train, fresh_state(dataset),
                               tr.TrainConfig(steps=5, batch_size=4))
        assert [step for step, _, _ in yielded] == [1, 2, 3, 4, 5]
        first = loss_rows(yielded)[0].split(",")
        assert first[0] == "1"
        assert len(first) == len("step,core,jump,vol,gvol,kurt,drift,pinball,spectral,total".split(","))
        for cell in first[1:]:
            float(cell)

    def test_core_loss_decreases(self, dataset):
        cfg = tr.TrainConfig(steps=120, batch_size=8, seed=2)
        core = [breakdown.core for _, breakdown, _ in
                tr.steps(dataset.train, fresh_state(dataset, seed=2), cfg)]
        early = np.mean(core[:10])
        late = np.mean(core[-10:])
        assert late < early

    def test_empty_slices_rejected(self, dataset):
        with pytest.raises(DataError):
            next(tr.steps([], fresh_state(dataset), tr.TrainConfig(steps=1)))

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

        straight, straight_rows = train_all(dataset.train, fresh_state(dataset, seed=3), cfg)

        half = fresh_state(dataset, seed=3)
        half_rows = list(itertools.islice(tr.steps(dataset.train, half, cfg), 8))
        assert half.step == 8
        ckpt = tmp_path / "half.npz"
        tr.save_checkpoint(ckpt, half)

        resumed, resumed_rows = train_all(dataset.train, tr.load_checkpoint(ckpt), cfg)

        assert params_equal(straight.params, resumed.params)
        assert params_equal(straight.bn_state, resumed.bn_state)
        assert np.array_equal(straight.flat_adam_m, resumed.flat_adam_m)
        assert np.array_equal(straight.flat_adam_v, resumed.flat_adam_v)
        assert straight.step == resumed.step == 16
        assert loss_rows(half_rows + resumed_rows) == loss_rows(straight_rows)

    def test_resumed_trace_rows_match_straight_run(self, dataset, tmp_path):
        cfg = tr.TrainConfig(steps=10, batch_size=4, seed=5)
        _, straight = train_all(dataset.train, fresh_state(dataset, seed=3), cfg)
        state = fresh_state(dataset, seed=3)
        half = list(itertools.islice(tr.steps(dataset.train, state, cfg), 4))
        tr.save_checkpoint(tmp_path / "half.npz", state)
        _, rest = train_all(dataset.train, tr.load_checkpoint(tmp_path / "half.npz"), cfg)
        straight = trace_rows(straight, cfg.clip_norm)
        assert trace_rows(half + rest, cfg.clip_norm) == straight
        assert [r.split(",")[0] for r in straight] == [f"{i}" for i in range(1, 11)]


class TestFlatState:
    """The flat parameter/moment vectors, their views, and the step's workspace."""

    def test_twenty_steps_equal_the_dict_oracle(self, dataset):
        # the per-parameter dict loop (today's clip and Adam on new arrays)
        # and the flat-vector loop must agree bit for bit
        cfg = tr.TrainConfig(steps=20, batch_size=8, seed=7, clip_norm=0.5)
        state = fresh_state(dataset, seed=6)
        init_params = {k: v.copy() for k, v in state.params.items()}
        init_bn = {k: v.copy() for k, v in state.bn_state.items()}
        _, yielded = train_all(dataset.train, state, cfg)
        params, adam_m, adam_v, bn_state, ref_rows, ref_trace = oracles.train_reference(
            dataset.train, init_params, init_bn, state.net, state.sched, state.mode,
            state.return_scale, cfg, LossConfig(), cfg.steps)
        assert bits_equal(state.params, params)
        spec = dn.param_spec(state.net)
        assert bits_equal(dn.unflatten_params(state.flat_adam_m, spec), adam_m)
        assert bits_equal(dn.unflatten_params(state.flat_adam_v, spec), adam_v)
        assert bits_equal(state.bn_state, bn_state)
        assert loss_rows(yielded) == ref_rows
        cells = [r.split(",") for r in trace_rows(yielded, cfg.clip_norm)]
        assert [(float(c[1]), c[2]) for c in cells] == [
            (norm, str(int(clipped))) for norm, clipped in ref_trace]
        assert 0 < sum(clipped for _, clipped in ref_trace) < cfg.steps

    def test_truth_table_run_equals_the_on_the_fly_oracle(self, dataset, monkeypatch):
        # steps computes the loss's truth statistics once per run; the oracle
        # loop leaves total_loss to compute them per batch.  Lengths 1, 3, 7
        # and 18-20, a zero slice (no kurtosis or spectrum) and a vol window
        # of 9 at stride 2, longer than the shortest slices.
        def cut(s, n, scale=1.0):
            return dataclasses.replace(s, log_returns=s.log_returns[:n] * scale,
                                       condition=dataclasses.replace(s.condition, n_trading=n))

        train = dataset.train
        slices = train[:30] + [cut(train[30], 1), cut(train[31], 3), cut(train[32], 7),
                               cut(train[33], 7), cut(train[34], 12, scale=0.0)]
        loss = LossConfig(vol_window=9, vol_stride=2)
        cfg = tr.TrainConfig(steps=12, batch_size=16, seed=9, clip_norm=0.5)
        state = tr.init_state(tiny_net(), diff.build_schedule(50), "v",
                              tr.compute_return_scale(slices), 2)
        init_params = {k: v.copy() for k, v in state.params.items()}
        init_bn = {k: v.copy() for k, v in state.bn_state.items()}
        with pytest.warns(RuntimeWarning):
            _, yielded = train_all(slices, state, cfg, loss)

        breakdowns = []
        on_the_fly = tr.objectives.total_loss

        def recording(*args, **kwargs):
            assert "truth" not in kwargs
            result = on_the_fly(*args, **kwargs)
            breakdowns.append(result[0])
            return result

        monkeypatch.setattr(tr.objectives, "total_loss", recording)
        with pytest.warns(RuntimeWarning):
            params, adam_m, adam_v, bn_state, ref_rows, ref_trace = oracles.train_reference(
                slices, init_params, init_bn, state.net, state.sched, state.mode,
                state.return_scale, cfg, loss, cfg.steps)
        assert bits_equal(state.params, params)
        spec = dn.param_spec(state.net)
        assert bits_equal(dn.unflatten_params(state.flat_adam_m, spec), adam_m)
        assert bits_equal(dn.unflatten_params(state.flat_adam_v, spec), adam_v)
        assert bits_equal(state.bn_state, bn_state)
        assert loss_rows(yielded) == ref_rows
        assert trace_rows(yielded, cfg.clip_norm) == [
            tr.format_trace_row(step, norm, cfg.clip_norm, bd)
            for step, ((norm, _), bd) in enumerate(zip(ref_trace, breakdowns), start=1)]
        skipped = {term for bd in breakdowns for term, _ in bd.skipped}
        assert {"jump", "gvol", "kurt", "spectral", "vol"} <= skipped

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

        state, _ = train_all(dataset.train, fresh_state(dataset, seed=4),
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
        train_all(dataset.train, fresh_state(dataset), tr.TrainConfig(steps=3, batch_size=4))
        assert len(seen) == 3 and isinstance(seen[0], nn.Workspace)
        assert all(ws is seen[0] for ws in seen)


class TestCheckpoint:
    def test_round_trip_bitwise(self, dataset, tmp_path):
        state, _ = train_all(dataset.train, fresh_state(dataset, seed=4),
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

    def test_savez_error_keeps_the_previous_checkpoint(self, dataset, tmp_path,
                                                       monkeypatch):
        # np.savez writes the whole new archive, then raises (a full disk)
        path = tmp_path / "checkpoint.npz"
        tr.save_checkpoint(path, fresh_state(dataset, seed=1))
        before = path.read_bytes()
        savez = np.savez

        def failing(file, **arrays):
            savez(file, **arrays)
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", failing)
        with pytest.raises(DataError, match="cannot write .*checkpoint.npz: no space"):
            tr.save_checkpoint(path, fresh_state(dataset, seed=2))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]

    def test_stale_tmp_is_overwritten(self, dataset, tmp_path):
        state = fresh_state(dataset, seed=2)
        tr.save_checkpoint(tmp_path / "fresh.npz", state)
        (tmp_path / "checkpoint.npz.tmp").write_bytes(b"PK" * 100_000)
        tr.save_checkpoint(tmp_path / "checkpoint.npz", state)
        assert ((tmp_path / "checkpoint.npz").read_bytes()
                == (tmp_path / "fresh.npz").read_bytes())
        assert params_equal(tr.load_checkpoint(tmp_path / "checkpoint.npz").params,
                            state.params)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz", "fresh.npz"]

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
