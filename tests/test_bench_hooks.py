"""The benchmark's traced run wraps these pqlab names; renaming one fails here.

``perfbench.layers.instrument`` installs span shims by attribute name, so
a renamed or moved function would otherwise break only the benchmark's own
test suite.  The last test loads each workload's INI and names its
artifacts, so a deleted INI key or contract name fails here too.  No test
here runs a workload.
"""

import numpy as np
import pytest
from perfbench import layers, workloads
from perfbench.tracing import Tracer

import pqlab.cli as cli
import pqlab.diffusion as diffusion
import pqlab.pq_game as pq_game
import pqlab.q_pricer as q_pricer
import pqlab.runconfig as runconfig
import pqlab.sampler as sampler
import pqlab.training as training
from pqlab.denoiser import DenoiserConfig, init_bn_state, init_params
from pqlab.market_paths import ConditionVector, PathSlice

HOOKS = (
    (pq_game, "price"),
    (pq_game, "p_price"),
    (pq_game, "contract_cashflows"),
    (pq_game, "run_game"),
    (q_pricer, "discounted_values"),
)


def test_instrument_wraps_the_valuation_hooks_and_restores_them():
    originals = [getattr(owner, attr) for owner, attr in HOOKS]
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        for (owner, attr), original in zip(HOOKS, originals):
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for (owner, attr), original in zip(HOOKS, originals):
        assert getattr(owner, attr) is original, attr


NET = DenoiserConfig(input_length=8, base_channels=2, depth=1,
                     time_embed_dim=2, cond_embed_dim=2, cond_hidden_dim=2)
COND = ConditionVector(sigma_hist=0.2, r=0.03, t_calendar=12 / 365,
                       t_trading=6 / 252, n_trading=6)


def test_traced_sampling_still_sees_the_forward_and_its_convs():
    # the shims read denoiser.forward's x at position 2 and conv1d's
    # (x, w, b) first, and see only calls made through the module attributes
    model = sampler.GeneratorModel(params=init_params(NET, 0),
                                   bn_state=init_bn_state(NET), net=NET)
    config = sampler.SamplerConfig(num_steps=3, n_paths=5, seed=1)
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        sampler.sample_paths(model, config, COND, diffusion.build_schedule(50))
    finally:
        tracer.restore()
    forwards = [s for s in tracer.spans if s.name == "denoiser.forward.infer"]
    assert len(forwards) == config.num_steps
    assert all(s.attrs["batch"] == config.n_paths for s in forwards)
    assert any(s.name.startswith("nn.conv1d.") for s in tracer.spans)


def test_traced_train_step_still_sees_the_forward_backward_and_loss():
    # the benchmark's train rows read these spans; the forward shim reads
    # ``training`` by keyword or at position 6, the loss shim the
    # prediction at position 0 and the breakdown's skipped counts, the
    # clip shim the (grads, norm) result and max_norm at position 1
    rng = np.random.default_rng(4)
    slices = [PathSlice(s0=100.0, log_returns=rng.normal(scale=0.01, size=6),
                        condition=COND,
                        window_calendar_days=12, start_date=np.datetime64("2020-01-02"))
              for _ in range(3)]
    state = training.init_state(NET, diffusion.build_schedule(50), "v", 0.01, seed=0)
    config = training.TrainConfig(steps=2, batch_size=4)
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        list(training.steps(slices, state, config))
    finally:
        tracer.restore()
    names = [s.name for s in tracer.spans]
    for name in ("training.train_step", "denoiser.forward.train", "denoiser.backward",
                 "objectives.total_loss", "training.make_batch",
                 "training.adam_update", "training.clip_global_norm"):
        assert names.count(name) == config.steps, name
    # one batch-norm per residual block: each encoder level, the middle, each decoder level
    for name in ("nn.batchnorm", "nn.batchnorm_backward"):
        assert names.count(name) == config.steps * (2 * NET.depth + 1), name
    assert "denoiser.forward.infer" not in names
    # the conv shim reads conv1d's x and w as 3-D arrays for its name and flops
    convs = [s for s in tracer.spans if s.name.startswith("nn.conv1d.")]
    assert len(convs) == config.steps * (3 * (2 * NET.depth + 1) + 1)
    assert all(s.attrs["flops"] > 0 for s in convs)
    loss = tracer.spans[names.index("objectives.total_loss")]
    assert loss.attrs["terms"] == layers.LOSS_TERMS * config.batch_size
    clips = [s for s in tracer.spans if s.name == "training.clip_global_norm"]
    assert all(isinstance(s.attrs["clipped"], bool) for s in clips)


def test_traced_game_records_one_span_per_contract_and_checks_its_trades():
    # the game rows and the zero-sum check read the run_game spans: the shim
    # names each by the contract at position 1 and counts its trade records
    rng = np.random.default_rng(5)
    slices = [PathSlice(s0=100.0, log_returns=rng.normal(scale=0.01, size=6),
                        condition=COND,
                        window_calendar_days=12,
                        start_date=np.datetime64("2020-01-02") + i)
              for i in range(4)]
    book = [pq_game.CONTRACTS[product]() for product in layers.PRODUCTS]
    config = pq_game.GameConfig(q_paths=64, seed=3)

    def inflated(s, params):
        return s.s0 + 3.0 * (q_pricer.simulate_gbm(params) - s.s0)

    tracer = Tracer()
    try:
        layers.instrument(tracer)
        with tracer.span("cli.game"):
            values = pq_game.value_slices(slices, book, inflated, config)
            for contract, contract_values in zip(book, values):
                pq_game.run_game(contract_values, contract, config)
    finally:
        tracer.restore()
    names = [s.name for s in tracer.spans]
    for product in layers.PRODUCTS:
        assert names.count(f"pq_game.run_game.{product}") == 1, product
    checked, bad = layers.game_record_failures(tracer, [0])
    assert checked > 0
    assert bad == 0



def test_traced_game_samples_the_slices_p_paths_in_one_forward_per_step():
    # the denoiser.forward.infer.batch row of the game workload reads these
    # spans: the CLI's P source packs consecutive slices into one chunk
    rng = np.random.default_rng(6)
    slices = [PathSlice(s0=100.0, log_returns=rng.normal(scale=0.01, size=6),
                        condition=COND, window_calendar_days=12,
                        start_date=np.datetime64("2020-01-02") + i)
              for i in range(4)]
    model = sampler.GeneratorModel(params=init_params(NET, 0),
                                   bn_state=init_bn_state(NET), net=NET)
    cfg = runconfig.RunConfig(out_dir="unused",
                              sampler=sampler.SamplerConfig(num_steps=3),
                              game=pq_game.GameConfig(q_paths=64, p_paths=5, seed=3))
    book = [pq_game.CONTRACTS["european"]()]
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        source = cli._model_p_source(model, diffusion.build_schedule(50), cfg, slices)
        pq_game.value_slices(slices, book, source, cfg.game)
    finally:
        tracer.restore()
    forwards = [s for s in tracer.spans if s.name == "denoiser.forward.infer"]
    assert len(forwards) == cfg.sampler.num_steps
    batch = min(sampler.SAMPLE_CHUNK, len(slices) * cfg.game.p_paths)
    assert all(s.attrs["batch"] == batch for s in forwards)


def test_traced_valuation_spans_come_from_p_price_alone():
    # the q_pricer.discounted_values row reads these spans: p_price values
    # one contract through the module attribute, while price_all values each
    # chunk's whole book with one book_values call, which is not wrapped
    book = [pq_game.CONTRACTS[product]() for product in layers.PRODUCTS]
    params = q_pricer.GbmParams(s0=100.0, r=0.02, sigma=0.3, n_days=6,
                                n_paths=q_pricer.CHUNK_PATHS + 5, seed=2)
    paths = q_pricer.simulate_gbm(params)[:32]
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        q_pricer.price_all(book, params, t_calendar=COND.t_calendar)
        for contract in book:
            q_pricer.p_price(contract, paths, params.s0, params.r, COND.t_calendar)
    finally:
        tracer.restore()
    names = [s.name for s in tracer.spans]
    assert names == ["q_pricer.discounted_values"] * len(book)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_inputs_still_load(tmp_path, workload):
    # the benchmark writes its INI and names its artifacts from these pqlab
    # names and keys; this builds both for the full plan and runs nothing
    out = str(tmp_path / "out")
    ini = tmp_path / "run.ini"
    ini.write_text(workloads.make_ini(workload, 1, out, workloads.FULL))
    cfg = runconfig.load_config(ini)
    assert cfg.out_dir == out
    runner = workloads.Runner(workload, 1, workloads.FULL, str(tmp_path))
    for setup in (False, True):
        names = runner.artifacts(setup)
        assert names and all(isinstance(name, str) for name in names)
