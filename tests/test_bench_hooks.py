"""The benchmark's traced run wraps these pqlab names; renaming one fails here.

``perfbench.layers.instrument`` installs span shims by attribute name, so
a renamed or moved function would otherwise break only the benchmark's own
test suite.  This test runs no workload.
"""

from perfbench import layers
from perfbench.tracing import Tracer

import pqlab.diffusion as diffusion
import pqlab.pq_game as pq_game
import pqlab.q_pricer as q_pricer
import pqlab.sampler as sampler
from pqlab.denoiser import DenoiserConfig, init_bn_state, init_params
from pqlab.market_paths import ConditionVector

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


def test_traced_sampling_still_sees_the_forward_and_its_convs():
    # the shims read denoiser.forward's x at position 2 and conv1d's
    # (x, w, b) first, and see only calls made through the module attributes
    net = DenoiserConfig(input_length=8, base_channels=2, depth=1,
                         time_embed_dim=2, cond_embed_dim=2, cond_hidden_dim=2)
    model = sampler.GeneratorModel(params=init_params(net, 0),
                                   bn_state=init_bn_state(net), net=net)
    cond = ConditionVector(sigma_hist=0.2, r=0.03, t_calendar=12 / 365,
                           t_trading=6 / 252, n_trading=6)
    config = sampler.SamplerConfig(num_steps=3, n_paths=5, seed=1)
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        sampler.sample_paths(model, config, cond, diffusion.build_schedule(50))
    finally:
        tracer.restore()
    forwards = [s for s in tracer.spans if s.name == "denoiser.forward.infer"]
    assert len(forwards) == config.num_steps
    assert all(s.attrs["batch"] == config.n_paths for s in forwards)
    assert any(s.name.startswith("nn.conv1d.") for s in tracer.spans)
