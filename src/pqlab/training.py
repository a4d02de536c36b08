"""Optimization loop: batch assembly, Adam with gradient clipping, checkpoints.

Each step draws everything it needs (slice indices, diffusion steps, noise)
from its own stream seeded by (run seed, step index), so training 100 steps,
checkpointing, and training 100 more is bitwise identical to training 200
steps in one process.  The optimizer state therefore lives in the checkpoint
alongside the parameters.

Checkpoint format "PQLAB-CKPT v1" (npz archive, written whole by ``artifact``):

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
Loading checks every vector finite, and the Adam second moment and every
running variance non-negative, since both reach a square root.

State layout: the parameters, both Adam moments and each step's gradient
are each one float64 vector in ``denoiser.param_spec`` order, the
checkpoint's layout, so the checkpoint writes the vectors as they are.
Only the parameters also have per-name views, which the network reads.
Adam and clipping run in place on them, in the per-parameter operation
order, so the bits are those of the per-array update.  ``steps`` owns
one ``nn.Workspace`` for the run: it lends the gradient vector, Adam's
scratch vector and the conv backward's buffer, which die within a step,
so a step reuses their memory instead of page-faulting in fresh arrays.
The forward's caches live until the backward and keep allocating.  The
loss's truth statistics are computed once per run, for every slice.  A
non-finite loss or gradient norm raises NumericError before the state changes.

``steps`` writes no file: the ``train`` command turns what it yields into
the loss row and the trace row (``format_trace_row``: the pre-clip gradient
norm, whether clipping fired, and the sequences each loss term skipped).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import denoiser, diffusion, nn, objectives
from .denoiser import DenoiserConfig
from .diffusion import MODES, NoiseSchedule
from .errors import ConfigError, DataError, NumericError
from .market_paths import artifact, npz_member, read_npz
from .objectives import LossBreakdown, LossConfig
from .sampler import GeneratorModel

CHECKPOINT_VERSION = "PQLAB-CKPT v1"
# Largest training batch: a forward and backward of the toy network (input
# length 20, base channels 16) peaks at about 0.1 MiB per row, so about
# 400 MiB at 2**12 rows, 64 times the benchmark's batch.
MAX_BATCH_SIZE = 2**12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# column order is the on-disk contract for per-step trace rows
TRACE_CSV_HEADER = ",".join(
    ("step", "grad_norm", "clipped", *(f"skipped_{term}" for term in objectives.TERMS))
)


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
        if self.batch_size > MAX_BATCH_SIZE:
            raise ConfigError(f"batch_size must be at most {MAX_BATCH_SIZE}, "
                              f"got {self.batch_size}")
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
    """Everything the loop mutates, plus the fixed model/schedule context.

    ``flat_params``, ``flat_adam_m`` and ``flat_adam_v`` are float64
    vectors in ``denoiser.param_spec`` order; ``params`` is the dict of
    views into ``flat_params`` the network reads by name, so an update of
    the vector is what the network reads next.
    """

    flat_params: np.ndarray
    flat_adam_m: np.ndarray
    flat_adam_v: np.ndarray
    bn_state: dict
    step: int
    net: DenoiserConfig
    sched: NoiseSchedule
    mode: str
    return_scale: float
    params: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # the views must be of the vector Adam updates, never of a converted copy
        self.flat_params = np.ascontiguousarray(self.flat_params, dtype=np.float64)
        self.params = denoiser.unflatten_params(self.flat_params, denoiser.param_spec(self.net))
        for name in ("flat_adam_m", "flat_adam_v"):
            moment = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if moment.shape != self.flat_params.shape:
                raise DataError(f"{name} has shape {moment.shape}, "
                                f"the parameters {self.flat_params.shape}")
            setattr(self, name, moment)

    def model(self) -> GeneratorModel:
        return GeneratorModel(
            params=self.params,
            bn_state=self.bn_state,
            net=self.net,
            mode=self.mode,
            return_scale=self.return_scale,
        )


class PaddedSlices(NamedTuple):
    """Every training slice as one padded row: x0 and mask (S, L), cond (S, d)."""

    x0: np.ndarray
    mask: np.ndarray
    cond: np.ndarray


def compute_return_scale(slices) -> float:
    """Population std of all valid train-set log returns pooled together."""
    if not slices:
        raise DataError("return scale needs at least one slice")
    return pooled_return_scale(np.concatenate([s.log_returns for s in slices]))


def pooled_return_scale(returns) -> float:
    """compute_return_scale of slices whose returns, end to end, are
    ``returns``, such as a slice store's train returns column."""
    pooled = np.asarray(returns, dtype=float)
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
    flat = denoiser.flatten_params(denoiser.init_params(net, seed),
                                   denoiser.param_spec(net))
    return TrainState(
        flat_params=flat,
        flat_adam_m=np.zeros_like(flat),
        flat_adam_v=np.zeros_like(flat),
        bn_state=denoiser.init_bn_state(net),
        step=0,
        net=net,
        sched=sched,
        mode=mode,
        return_scale=float(return_scale),
    )


def pad_slices(slices, length: int, return_scale: float) -> PaddedSlices:
    """Every slice's returns, scaled to the network's working space, as one row.

    Padding beyond each slice's valid prefix is zero and masked out.  A
    slice longer than the network is a ConfigError.
    """
    x0 = np.zeros((len(slices), length))
    mask = np.zeros((len(slices), length), dtype=bool)
    cond = np.zeros((len(slices), len(slices[0].condition.as_array())))
    for row, s in enumerate(slices):
        n = s.condition.n_trading
        if n > length:
            raise ConfigError(
                f"slice has {n} returns but the network length is {length}"
            )
        x0[row, :n] = s.log_returns / return_scale
        mask[row, :n] = True
        cond[row] = s.condition.as_array()
    return PaddedSlices(x0, mask, cond)


def make_batch(padded: PaddedSlices, rng, batch_size: int):
    """Sample slices with replacement: the (x0, mask, cond) rows of padded and their indices."""
    idx = rng.integers(0, len(padded.x0), size=batch_size)
    return padded.x0[idx], padded.mask[idx], padded.cond[idx], idx


def clip_global_norm(grads: dict, max_norm: float) -> tuple[dict, float]:
    """Scale the gradient arrays in place so their global L2 norm is <= max_norm.

    Returns (grads, the norm before clipping).
    """
    # np.add.reduce is np.sum without its Python wrapper, which costs more
    # than summing most of these arrays
    sq = math.fsum(float(np.add.reduce(g * g, axis=None)) for g in grads.values())
    norm = math.sqrt(sq)
    if max_norm < norm < math.inf:  # a non-finite norm leaves the gradient as it is
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return grads, norm


def adam_update(state: TrainState, grads: np.ndarray, lr: float, step: int,
                workspace: nn.Workspace | None = None) -> None:
    """One Adam step with bias correction on the flat vectors; sets state.step = step.

    grads is the flat gradient vector and is spent as scratch.  Each
    value is formed in the per-parameter order, m = b1*m + (1-b1)*g,
    v = b2*v + ((1-b2)*g)*g, p -= (lr*(m/b1c)) / (sqrt(v/b2c) + eps), so
    the bits are those of the per-array update.  The one other vector it
    needs is lent by ``workspace`` under ``adam``.
    """
    b1c = 1.0 - ADAM_BETA1**step
    b2c = 1.0 - ADAM_BETA2**step
    m, v, p = state.flat_adam_m, state.flat_adam_v, state.flat_params
    s = nn.lend(workspace, "adam", p.shape)
    np.multiply(grads, 1.0 - ADAM_BETA1, out=s)
    m *= ADAM_BETA1
    m += s
    np.multiply(grads, 1.0 - ADAM_BETA2, out=s)
    s *= grads
    v *= ADAM_BETA2
    v += s
    denom = np.divide(v, b2c, out=grads)  # g is no longer needed
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, b1c, out=s)
    s *= lr
    s /= denom
    p -= s
    state.step = step


def train_step(padded: PaddedSlices, state: TrainState, config: TrainConfig, step: int,
               loss: LossConfig = LossConfig(),
               workspace: nn.Workspace | None = None,
               truth: dict | None = None) -> tuple[LossBreakdown, float]:
    """One optimizer step; all randomness comes from (seed, step).

    Returns the loss breakdown and the global gradient norm before
    clipping.  ``workspace`` lends the arrays that die within the step
    (the gradient vector, Adam's scratch, the conv backward's buffer);
    ``truth`` is padded's ``objectives.truth_table`` at ``loss``.
    """
    rng = np.random.default_rng([config.seed, step])
    length = state.net.input_length
    x0, mask, cond, idx = make_batch(padded, rng, config.batch_size)
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
        pred, target, x0_pred, x0, mask, step, config.steps, loss, with_grads=True,
        truth=None if truth is None else (truth, idx),
    )
    if not math.isfinite(breakdown.total):
        raise NumericError(f"non-finite loss at step {step}: {breakdown.total!r}")

    # chain the data-space half through d(x0_hat)/d(prediction)
    scale = diffusion.x0_coefficients(state.mode, t, state.sched)
    g_out = g_pred + g_x0 * scale[:, None]
    g_flat = nn.lend(workspace, "grads", state.flat_params.shape)
    grads = denoiser.backward(g_out[:, None, :], cache, state.params,
                              out=g_flat, workspace=workspace)
    _, norm = clip_global_norm(grads, config.clip_norm)
    if not math.isfinite(norm):
        raise NumericError(f"non-finite gradient at step {step}: global norm {norm!r}")
    adam_update(state, g_flat, config.lr, step, workspace)
    state.bn_state.update(bn_updates)
    return breakdown, norm


def format_trace_row(step: int, norm: float, max_norm: float,
                     breakdown: LossBreakdown) -> str:
    """One CSV row matching TRACE_CSV_HEADER; repr() keeps the norm lossless."""
    skipped = dict(breakdown.skipped)
    counts = (str(skipped.get(term, 0)) for term in objectives.TERMS)
    return ",".join([str(int(step)), repr(float(norm)), str(int(norm > max_norm)), *counts])


def steps(slices, state: TrainState, config: TrainConfig,
          loss: LossConfig = LossConfig()):
    """Run steps state.step+1 .. config.steps, mutating state in place.

    Yields (step, loss breakdown, pre-clip gradient norm) after each step.
    loss carries the auxiliary-term weights and the vol-clustering window.
    A caller that stops iterating pauses the run; config.steps stays the
    schedule total, so resuming from the paused state reproduces the
    uninterrupted run.
    """
    if not slices:
        raise DataError("training needs at least one slice")
    padded = pad_slices(slices, state.net.input_length, state.return_scale)
    truth = objectives.truth_table(padded.x0, padded.mask, loss)
    workspace = nn.Workspace()
    for step in range(state.step + 1, config.steps + 1):
        breakdown, norm = train_step(padded, state, config, step, loss, workspace, truth)
        yield step, breakdown, norm


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, state: TrainState) -> None:
    """Write the versioned npz checkpoint; see the module docstring."""
    pspec = denoiser.param_spec(state.net)
    bnspec = denoiser.bn_spec(state.net)
    with artifact(path, "wb") as fh:
        np.savez(
            fh,
            version=np.array(CHECKPOINT_VERSION),
            step=np.array(state.step, dtype=np.int64),
            net_config=np.array(json.dumps(asdict(state.net), sort_keys=True)),
            mode=np.array(state.mode),
            return_scale=np.array(state.return_scale, dtype=np.float64),
            beta=np.asarray(state.sched.beta, dtype=np.float64),
            param_names=np.array([name for name, _ in pspec]),
            params=state.flat_params,
            adam_m=state.flat_adam_m,
            adam_v=state.flat_adam_v,
            bn_names=np.array([name for name, _ in bnspec]),
            bn_values=denoiser.flatten_params(state.bn_state, bnspec),
        )


def load_checkpoint(path) -> TrainState:
    """Load and validate a PQLAB-CKPT v1 archive back into a TrainState.

    A tampered field (a scalar that is not 0-d, a name list or vector that
    is not 1-D, a value of the wrong dtype kind, negative step, unknown
    mode, beta outside (0, 1), a non-finite or non-positive return_scale,
    non-finite params, moments or batch-norm values, a negative Adam second
    moment or running variance) is a DataError naming the file and the
    field.
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
            vector = np.asarray(npz_member(archive, key, 1, "f"), dtype=np.float64)
            denoiser.unflatten_params(vector, spec)  # the length check
            if not np.isfinite(vector).all():
                raise DataError(f"checkpoint {path}: {key} must be finite")
            vectors[key] = vector
        # Adam takes the square root of the second moment, and inference
        # of the running variance: a negative entry would turn into NaN
        if (vectors["adam_v"] < 0.0).any():
            raise DataError(f"checkpoint {path}: adam_v must be >= 0")
        bn_state = denoiser.unflatten_params(vectors["bn_values"], bnspec)
        for name, values in bn_state.items():
            if name.endswith(".running_var") and (values < 0.0).any():
                raise DataError(f"checkpoint {path}: bn_values {name} must be >= 0")
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
            flat_params=vectors["params"],
            flat_adam_m=vectors["adam_m"],
            flat_adam_v=vectors["adam_v"],
            bn_state=bn_state,
            step=step,
            net=net,
            sched=sched,
            mode=mode,
            return_scale=return_scale,
        )
