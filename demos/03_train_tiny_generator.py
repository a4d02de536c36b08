"""Train a miniature conditional generator and sample paths from it.

Everything is seeded: the batch draws, the noise levels and the sampler
all derive from named integers, so rerunning this script reproduces the
same losses and the same paths bit for bit.
"""

import numpy as np

from pqlab.denoiser import DenoiserConfig, param_count
from pqlab.diffusion import build_schedule
from pqlab.market_paths import (
    GeneratorConfig,
    RateTable,
    slice_dataset,
    synthesize_series,
)
from pqlab.sampler import SamplerConfig, sample_paths
from pqlab.training import TrainConfig, compute_return_scale, init_state, steps

series = synthesize_series(GeneratorConfig(n_days=400), seed=3)
rates = {30: RateTable(30, ["2015-01-01"], [0.03])}
split = slice_dataset(series, rates, [30], "2015-12-01")
scale = compute_return_scale(split.train)
print(f"{len(split.train)} train slices, return scale {scale:.5f}")

net = DenoiserConfig(
    input_length=20, base_channels=8, depth=2,
    time_embed_dim=8, cond_embed_dim=8, cond_hidden_dim=16,
)
print(f"denoiser parameters: {param_count(net)}")

sched = build_schedule(100, 1e-4, 0.02)
state = init_state(net, sched, mode="v", return_scale=scale, seed=0)
config = TrainConfig(steps=120, batch_size=16, seed=5)


for step, breakdown, _ in steps(split.train, state, config):
    if step % 20 == 0 or step == 1:
        print(f"step {step:4d}  core={breakdown.core:.4f}  total={breakdown.total:.4f}")

condition = split.test[0].condition
paths = sample_paths(
    state.model(), SamplerConfig(num_steps=25, n_paths=500, seed=9),
    condition, sched,
)
print(f"\nsampled {paths.shape[0]} paths of {paths.shape[1]} daily log returns")
print(f"generated daily vol:    {paths.std():.5f}")
print(f"pooled train daily vol: {scale:.5f}")
print("(120 steps reproduce the pooled scale; conditioning on the slice's")
print(" own regime takes a longer run, like the one in the acceptance tests)")
