"""Optimization loop: batch assembly, Adam with gradient clipping, checkpoints.

Each step draws everything it needs (slice indices, diffusion steps, noise)
from its own stream seeded by (run seed, step index), so training 100 steps,
checkpointing, and training 100 more is bitwise identical to training 200
steps in one process.  The optimizer state therefore lives in the checkpoint
alongside the parameters.

Checkpoint format "PQLAB-CKPT v1" (npz archive):

    version       format tag
    step          completed optimizer steps (int64)
    net_config    denoiser config as sorted-key JSON
    mode          prediction parameterization (eps | x0 | v)
    return_scale  global train-set return std used to scale the data
    beta          noise-schedule betas (float64, length T)
    param_names   canonical parameter order (consistency check)
    params        all parameters flattened in param_spec order
    adam_m/adam_v Adam first/second moments, same layout as params
    bn_names      batch-norm state entries, schedule order
    bn_values     running statistics concatenated in bn_names order

All float payloads are float64, so save/load round-trips exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import denoiser, diffusion, objectives
from .denoiser import DenoiserConfig
from .diffusion import MODES, NoiseSchedule
from .errors import ConfigError, DataError, NumericError
from .market_paths import npz_member, read_npz
from .objectives import LossBreakdown, LossConfig
from .sampler import GeneratorModel

CHECKPOINT_VERSION = "PQLAB-CKPT v1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """The ``[train]`` section; ``steps`` is the run's total budget.

    The auxiliary-loss warmup is expressed as a fraction of ``steps``, so a
    resumed run must keep the same total for the schedules to line up.
    """

    steps: int = 500
    batch_size: int = 32
    lr: float = 1e-3
    clip_norm: float = 1.0
    seed: int = 0
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0.0):
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")


@dataclass
class TrainState:
    """Everything the loop mutates, plus the fixed model/schedule context."""

    params: dict
    bn_state: dict
    adam_m: dict
    adam_v: dict
    step: int
    net: DenoiserConfig
    sched: NoiseSchedule
    mode: str
    return_scale: float

    def model(self) -> GeneratorModel:
        return GeneratorModel(
            params=self.params,
            bn_state=self.bn_state,
            net=self.net,
            mode=self.mode,
            return_scale=self.return_scale,
        )


def compute_return_scale(slices) -> float:
    """Population std of all valid train-set log returns pooled together."""
    if not slices:
        raise DataError("return scale needs at least one slice")
    pooled = np.concatenate([np.asarray(s.log_returns, dtype=float) for s in slices])
    if pooled.size < 2:
        raise DataError("return scale needs at least two returns")
    scale = float(np.std(pooled))
    if not math.isfinite(scale) or scale <= 0.0:
        raise DataError("train returns have no spread; cannot scale")
    return scale


def init_state(
    net: DenoiserConfig,
    sched: NoiseSchedule,
    mode: str,
    return_scale: float,
    seed: int,
) -> TrainState:
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    params = denoiser.init_params(net, seed)
    return TrainState(
        params=params,
        bn_state=denoiser.init_bn_state(net),
        adam_m={k: np.zeros_like(p) for k, p in params.items()},
        adam_v={k: np.zeros_like(p) for k, p in params.items()},
        step=0,
        net=net,
        sched=sched,
        mode=mode,
        return_scale=float(return_scale),
    )


def make_batch(slices, length: int, rng, batch_size: int, return_scale: float):
    """Sample slices with replacement into padded (x0, mask, cond) arrays.

    x0 is scaled to the network's working space; padding beyond each
    slice's valid prefix is zero and masked out.
    """
    idx = rng.integers(0, len(slices), size=batch_size)
    x0 = np.zeros((batch_size, length))
    mask = np.zeros((batch_size, length), dtype=bool)
    cond = np.zeros((batch_size, len(slices[0].condition.as_array())))
    for row, i in enumerate(idx):
        s = slices[int(i)]
        n = s.condition.n_trading
        if n > length:
            raise ConfigError(
                f"slice has {n} returns but the network length is {length}"
            )
        x0[row, :n] = s.log_returns / return_scale
        mask[row, :n] = True
        cond[row] = s.condition.as_array()
    return x0, mask, cond


def clip_global_norm(grads: dict, max_norm: float) -> tuple[dict, float]:
    """Scale the whole gradient dict so its global L2 norm is <= max_norm."""
    sq = math.fsum(float(np.sum(g * g)) for g in grads.values())
    norm = math.sqrt(sq)
    if norm > max_norm:
        factor = max_norm / norm
        grads = {k: g * factor for k, g in grads.items()}
    return grads, norm


def adam_update(state: TrainState, grads: dict, lr: float, step: int) -> None:
    """One Adam step with bias correction; sets state.step = step."""
    b1c = 1.0 - ADAM_BETA1**step
    b2c = 1.0 - ADAM_BETA2**step
    for k, p in state.params.items():
        g = grads[k]
        state.adam_m[k] = ADAM_BETA1 * state.adam_m[k] + (1.0 - ADAM_BETA1) * g
        state.adam_v[k] = ADAM_BETA2 * state.adam_v[k] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.adam_m[k] / b1c
        v_hat = state.adam_v[k] / b2c
        state.params[k] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    state.step = step


def train_step(slices, state: TrainState, config: TrainConfig, step: int,
               loss: LossConfig = LossConfig()) -> LossBreakdown:
    """One optimizer step; all randomness comes from (seed, step)."""
    rng = np.random.default_rng([config.seed, step])
    length = state.net.input_length
    x0, mask, cond = make_batch(
        slices, length, rng, config.batch_size, state.return_scale
    )
    t = rng.integers(1, state.sched.T + 1, size=config.batch_size)
    eps = rng.standard_normal((config.batch_size, length))

    x_t = diffusion.forward_diffuse(x0, t, eps, state.sched)
    target = diffusion.training_target(state.mode, x0, eps, t, state.sched)

    pred3, cache, bn_updates = denoiser.forward(
        state.params, state.bn_state, x_t[:, None, :], t, cond, state.net, training=True
    )
    pred = pred3[:, 0, :]
    x0_pred = diffusion.recover_x0(x_t, pred, state.mode, t, state.sched)

    breakdown, g_pred, g_x0 = objectives.total_loss(
        pred, target, x0_pred, x0, mask, step, config.steps, loss, with_grads=True
    )
    if not math.isfinite(breakdown.total):
        raise NumericError(f"non-finite loss at step {step}: {breakdown.total!r}")

    # chain the data-space half through d(x0_hat)/d(prediction)
    scale = diffusion.x0_coefficients(state.mode, t, state.sched)
    g_out = g_pred + g_x0 * scale[:, None]
    grads = denoiser.backward(g_out[:, None, :], cache, state.params)
    grads, _ = clip_global_norm(grads, config.clip_norm)
    adam_update(state, grads, config.lr, step)
    state.bn_state.update(bn_updates)
    return breakdown


def train(slices, state: TrainState, config: TrainConfig,
          loss: LossConfig = LossConfig(), log_fh=None, checkpoint_fn=None,
          stop_step=None) -> TrainState:
    """Run steps state.step+1 .. config.steps, mutating state in place.

    loss carries the auxiliary-term weights and the vol-clustering window.
    log_fh, when given, receives one CSV row per step (no header).
    checkpoint_fn(state) fires every config.checkpoint_every steps.
    stop_step pauses the run early; config.steps stays the schedule total,
    so resuming from the paused state reproduces the uninterrupted run.
    """
    if not slices:
        raise DataError("training needs at least one slice")
    last = config.steps if stop_step is None else min(stop_step, config.steps)
    for step in range(state.step + 1, last + 1):
        breakdown = train_step(slices, state, config, step, loss)
        if log_fh is not None:
            log_fh.write(objectives.format_loss_row(step, breakdown) + "\n")
        if (
            checkpoint_fn is not None
            and config.checkpoint_every
            and step % config.checkpoint_every == 0
        ):
            checkpoint_fn(state)
    return state


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, state: TrainState) -> None:
    """Write the versioned npz checkpoint; see the module docstring."""
    pspec = denoiser.param_spec(state.net)
    bnspec = denoiser.bn_spec(state.net)
    np.savez(
        path,
        version=np.array(CHECKPOINT_VERSION),
        step=np.array(state.step, dtype=np.int64),
        net_config=np.array(json.dumps(asdict(state.net), sort_keys=True)),
        mode=np.array(state.mode),
        return_scale=np.array(state.return_scale, dtype=np.float64),
        beta=np.asarray(state.sched.beta, dtype=np.float64),
        param_names=np.array([name for name, _ in pspec]),
        params=denoiser.flatten_params(state.params, pspec),
        adam_m=denoiser.flatten_params(state.adam_m, pspec),
        adam_v=denoiser.flatten_params(state.adam_v, pspec),
        bn_names=np.array([name for name, _ in bnspec]),
        bn_values=denoiser.flatten_params(state.bn_state, bnspec),
    )


def load_checkpoint(path) -> TrainState:
    """Load and validate a PQLAB-CKPT v1 archive back into a TrainState.

    A tampered field (a scalar that is not 0-d, a name list or vector that
    is not 1-D, a value of the wrong dtype kind, negative step, unknown
    mode, beta outside (0, 1), a non-finite or non-positive return_scale,
    non-finite params, moments or batch-norm values) is a DataError naming
    the file and the field.
    """
    with read_npz(path, "checkpoint") as archive:
        if str(archive["version"]) != CHECKPOINT_VERSION:
            raise DataError(
                f"unsupported checkpoint version {archive['version']!r}"
            )
        try:
            net = DenoiserConfig(**json.loads(str(npz_member(archive, "net_config", 0, "U"))))
        except (TypeError, ConfigError) as exc:
            raise DataError(f"checkpoint net_config is malformed: {exc}") from exc
        pspec = denoiser.param_spec(net)
        names = [str(n) for n in npz_member(archive, "param_names", 1, "U")]
        if names != [name for name, _ in pspec]:
            raise DataError("checkpoint parameter layout does not match config")
        bnspec = denoiser.bn_spec(net)
        bn_names = [str(n) for n in npz_member(archive, "bn_names", 1, "U")]
        if bn_names != [name for name, _ in bnspec]:
            raise DataError("checkpoint batch-norm layout does not match config")
        vectors = {}
        for key, spec in (("params", pspec), ("adam_m", pspec),
                          ("adam_v", pspec), ("bn_values", bnspec)):
            vectors[key] = denoiser.unflatten_params(npz_member(archive, key, 1, "f"), spec)
            if not all(np.isfinite(v).all() for v in vectors[key].values()):
                raise DataError(f"checkpoint {path}: {key} must be finite")
        step = int(npz_member(archive, "step", 0, "iu"))
        mode = str(npz_member(archive, "mode", 0, "U"))
        return_scale = float(npz_member(archive, "return_scale", 0, "f"))
        if step < 0:
            raise DataError(f"checkpoint {path}: step must be >= 0, got {step}")
        if mode not in MODES:
            raise DataError(f"checkpoint {path}: mode must be one of {MODES}, got {mode!r}")
        if not (math.isfinite(return_scale) and return_scale > 0.0):
            raise DataError(
                f"checkpoint {path}: return_scale must be finite and > 0, got {return_scale}"
            )
        try:
            sched = NoiseSchedule(np.asarray(npz_member(archive, "beta", 1, "f"),
                                             dtype=np.float64))
        except ConfigError as exc:
            raise DataError(f"checkpoint {path}: beta: {exc}") from exc
        return TrainState(
            params=vectors["params"],
            bn_state=vectors["bn_values"],
            adam_m=vectors["adam_m"],
            adam_v=vectors["adam_v"],
            step=step,
            net=net,
            sched=sched,
            mode=mode,
            return_scale=return_scale,
        )
