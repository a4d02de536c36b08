"""Conditional 1-D U-Net predicting the diffusion target (eps, x0, or v).

Layout per resolution level: the level input and the time and condition
embeddings (broadcast along the length axis) go through a 3-wide fusion
conv, then a residual block

    ResBlock(x) = x + Conv(ReLU(BN(Conv(x)))).

The encoder downsamples by max-pool 2, the decoder upsamples by
nearest-neighbor doubling and concatenates the matching encoder skip.
The output head is a 1-wide conv initialized to zero, so a freshly
initialized network predicts zeros.  Embedding fusion happens at the
input of every level, the bottleneck included.

Inside the network activations are position-major, (length, channels,
batch), with GUARD zero rows at both ends of the length axis: the padding
the 3-wide convs read (``nn.conv1d``).  ``forward`` transposes its
(B, C, L) input once on entry and its output once on exit, and
``backward`` does the same with the gradient.  A fusion conv's weight is
(out, level channels + embedding channels, 3), embedding channels last.
One function applies it in training and inference (``_fusion``): the
level part is an ``nn.conv1d`` whose per-row (out, B) bias block is the
bias plus the embedding taps' sum, constant along the length axis; the
first and last position take back the first and last tap, which read
the zero pad there.
Encoder level i writes its residual output straight into the skip rows
of decoder level i's input, so nothing is concatenated.  Training mode
normalizes with batch statistics and always returns the cache
``backward`` reads.

Inference runs on a ``PreparedNet``, the part of the forward that only
the parameters and the conditions fix (``prepare``): each residual
block's batch-norm folded into its first conv, the condition MLP's
output, and per fusion conv the condition part of its blocks
(``_fusion_parts``, which training calls at every step).  A step then
runs the convs, its time embedding's taps and one bias block per fusion
conv.  A DDIM chunk prepares once for all its steps; a call without a
prepared net prepares its own.

Inference may pass an ``nn.Workspace``: every activation then lives in
arrays lent under a few roles shared by all levels, so a caller repeating
one shape (a DDIM chunk) reuses one set of memory; the returned output is
a fresh copy.  Each lend zeroes the guard rows, and what later writes a
whole array (ReLU, the residual add) keeps them zero.  A training forward
allocates, because its caches outlive the call; ``backward`` takes a
workspace for the conv backward's products, which die inside each call.
``x`` and ``t`` are checked finite on entry, and ``c`` where it is
embedded (in training, or once in ``prepare``): the condition MLP's ReLU
would otherwise turn a NaN into a finite, wrong output.

Parameters are a dict keyed by layer path; ``param_spec`` fixes the
canonical order of one flat float64 vector holding them all (the
checkpoint format relies on that order being stable).
``unflatten_params`` gives a vector's per-name views, which is how
training keeps its parameters and moments, and ``backward`` returns
the gradient as such views into one zeroed vector.  Batch-norm running
statistics are state, not parameters, and are kept in a separate dict
laid out by ``bn_spec``; ``flatten_params``/``unflatten_params`` serve
both layouts.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from types import MappingProxyType

import numpy as np

from . import nn
from .errors import ConfigError, DataError, NumericError

DEFAULT_TIME_EMBED_DIM = 16

# Upper bounds on a layout, so that an absurd INI value or checkpoint field
# is refused before anything is allocated at its size.  The input length
# (65 trading years) also bounds depth, since 2**depth divides it; the
# parameter count bounds every width field (base_channels, the embedding
# and hidden dims, in_channels, cond_dim): each one sizes some weight.
MAX_INPUT_LENGTH = 2**14
MAX_DEPTH = MAX_INPUT_LENGTH.bit_length() - 1
MAX_PARAMS = 2**24  # 128 MiB per float64 vector; base_channels 256 at depth 2

GUARD = 1  # zero rows at each end of an activation: the pad of a 3-wide conv


@dataclass(frozen=True)
class DenoiserConfig:
    input_length: int
    base_channels: int = 16
    depth: int = 2
    time_embed_dim: int = DEFAULT_TIME_EMBED_DIM
    cond_embed_dim: int = 16
    cond_hidden_dim: int = 32
    in_channels: int = 1
    cond_dim: int = 5

    def __post_init__(self) -> None:
        for f in fields(self):  # every field is an int: a float or bool is refused
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.depth > MAX_DEPTH:
            raise ConfigError(f"depth must be at most {MAX_DEPTH}")
        if self.input_length < 2**self.depth or self.input_length % 2**self.depth:
            raise ConfigError(
                f"input_length must be a positive multiple of {2 ** self.depth}"
            )
        if self.input_length > MAX_INPUT_LENGTH:
            raise ConfigError(f"input_length must be at most {MAX_INPUT_LENGTH}")
        if self.time_embed_dim % 2 or self.time_embed_dim < 2:
            raise ConfigError("time_embed_dim must be a positive even number")
        for name in ("base_channels", "cond_embed_dim", "cond_hidden_dim",
                     "in_channels", "cond_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        n_params = param_count(self)
        if n_params > MAX_PARAMS:
            raise ConfigError(f"the network would have {n_params} parameters, "
                              f"more than {MAX_PARAMS}")

    @property
    def embed_channels(self) -> int:
        return self.time_embed_dim + self.cond_embed_dim

    def level_channels(self, i: int) -> int:
        return self.base_channels * 2**i

    @property
    def mid_channels(self) -> int:
        return self.base_channels * 2**self.depth


def time_embed(t, d: int) -> np.ndarray:
    """Sinusoidal step embedding, interleaved [sin, cos] pairs.

    Frequencies omega_i = 10000^(-2i/d) for i = 0..d/2-1, so the first
    pair oscillates at unit frequency and later pairs are slower.
    """
    if d % 2 or d < 2:
        raise ConfigError("embedding dimension must be a positive even number")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    i = np.arange(d // 2, dtype=float)
    omega = 10000.0 ** (-2.0 * i / d)
    angles = t[:, None] * omega[None, :]
    out = np.empty((len(t), d))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def _resblock_spec(prefix: str, ch: int):
    return [
        (f"{prefix}.conv1.w", (ch, ch, 3)),
        (f"{prefix}.conv1.b", (ch,)),
        (f"{prefix}.bn.gamma", (ch,)),
        (f"{prefix}.bn.beta", (ch,)),
        (f"{prefix}.conv2.w", (ch, ch, 3)),
        (f"{prefix}.conv2.b", (ch,)),
    ]


def param_spec(config: DenoiserConfig):
    """Canonical (name, shape) list; flattening order and checkpoints use it."""
    spec = [
        ("cond.w1", (config.cond_hidden_dim, config.cond_dim)),
        ("cond.b1", (config.cond_hidden_dim,)),
        ("cond.w2", (config.cond_embed_dim, config.cond_hidden_dim)),
        ("cond.b2", (config.cond_embed_dim,)),
    ]
    e = config.embed_channels
    prev = config.in_channels
    for i in range(config.depth):
        ch = config.level_channels(i)
        spec.append((f"enc{i}.in.w", (ch, prev + e, 3)))
        spec.append((f"enc{i}.in.b", (ch,)))
        spec.extend(_resblock_spec(f"enc{i}.res", ch))
        prev = ch
    mid = config.mid_channels
    spec.append(("mid.in.w", (mid, prev + e, 3)))
    spec.append(("mid.in.b", (mid,)))
    spec.extend(_resblock_spec("mid.res", mid))
    above = mid
    for i in reversed(range(config.depth)):
        ch = config.level_channels(i)
        spec.append((f"dec{i}.in.w", (ch, above + ch + e, 3)))
        spec.append((f"dec{i}.in.b", (ch,)))
        spec.extend(_resblock_spec(f"dec{i}.res", ch))
        above = ch
    spec.append(("head.w", (config.in_channels, config.base_channels, 1)))
    spec.append(("head.b", (config.in_channels,)))
    return spec


def param_count(config: DenoiserConfig) -> int:
    return sum(math.prod(shape) for _, shape in param_spec(config))


def init_params(config: DenoiserConfig, seed: int) -> dict:
    """He-normal weights, zero biases, unit norm scales, zero output head."""
    rng = np.random.default_rng([int(seed), 0x1217])
    params = {}
    for name, shape in param_spec(config):
        if name.endswith(".b") or name.endswith(".beta") or name.startswith("cond.b"):
            params[name] = np.zeros(shape)
        elif name.endswith(".gamma"):
            params[name] = np.ones(shape)
        elif name.startswith("head."):
            params[name] = np.zeros(shape)
        else:
            fan_in = math.prod(shape[1:])
            params[name] = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)
    return params


def bn_spec(config: DenoiserConfig):
    """(name, shape) list of batch-norm running statistics, in param_spec order."""
    spec = []
    for name, shape in param_spec(config):
        if name.endswith(".gamma"):
            prefix = name[: -len(".gamma")]
            spec.append((f"{prefix}.running_mean", shape))
            spec.append((f"{prefix}.running_var", shape))
    return spec


def init_bn_state(config: DenoiserConfig) -> dict:
    """Zero running means, unit running variances."""
    return {
        name: np.zeros(shape) if name.endswith("_mean") else np.ones(shape)
        for name, shape in bn_spec(config)
    }


def flatten_params(values: dict, spec) -> np.ndarray:
    """Concatenate a dict laid out by a (name, shape) spec into one vector."""
    return np.concatenate(
        [np.asarray(values[name], dtype=np.float64).ravel() for name, _ in spec]
    )


def unflatten_params(vector: np.ndarray, spec) -> dict:
    """Views of a float64 vector laid out by a spec, keyed by name.

    The views share the vector's memory, so writing through either shows
    in both.  A vector of the wrong length is a DataError.
    """
    vector = np.asarray(vector, dtype=np.float64)
    sizes = [math.prod(shape) for _, shape in spec]
    if vector.shape != (sum(sizes),):
        raise DataError(
            f"flat vector has shape {vector.shape}, the layout needs ({sum(sizes)},)"
        )
    out = {}
    offset = 0
    for (name, shape), size in zip(spec, sizes):
        out[name] = vector[offset : offset + size].reshape(shape)
        offset += size
    return out


def _cond_embed_fwd(c: np.ndarray, params: dict):
    """Two-layer MLP embedding of the (B, C) conditions: W2 ReLU(W1 c + b1) + b2."""
    h, cache1 = nn.linear(c, params["cond.w1"], params["cond.b1"])
    a, mask = nn.relu(h)
    out, cache2 = nn.linear(a, params["cond.w2"], params["cond.b2"])
    return out, (cache1, mask, cache2)


def _cond_embed_bwd(g: np.ndarray, cache, grads: dict) -> None:
    cache1, mask, cache2 = cache
    ga, gw2, gb2 = nn.linear_backward(g, cache2)
    grads["cond.w2"] += gw2
    grads["cond.b2"] += gb2
    gh = nn.relu_backward(ga, mask)
    _, gw1, gb1 = nn.linear_backward(gh, cache1)
    grads["cond.w1"] += gw1
    grads["cond.b1"] += gb1


def _guarded(length, ch, batch, workspace=None, role=""):
    """A (length + 2 GUARD, ch, batch) array, zero in its guard rows, and its rows."""
    a = nn.lend(workspace, role, (length + 2 * GUARD, ch, batch), guard=GUARD)
    return a, a[GUARD:-GUARD]


def _end_taps(w):
    """(3 * out, E) stack of a 3-wide fusion weight's tap sum, first and last tap
    over E embedding channels: one matmul against an embedding then gives the
    block every position gets and the two a pad row takes back."""
    first, mid, last = w[:, :, 0], w[:, :, 1], w[:, :, 2]
    return np.concatenate([first + mid + last, first, last])  # the bits of w.sum(axis=2)


def _fusion_parts(params, name, ce, config):
    """(level weight, condition blocks, time tap stack) of fusion conv ``name``
    for the condition embedding ce (B, cond_embed_dim), as ``_fusion`` takes
    them: the blocks are a (3, out, B) stack of the bias plus the condition
    taps' sum, then its first and last tap (``_end_taps``)."""
    w = params[f"{name}.w"]
    ch = w.shape[1] - config.embed_channels
    cut = ch + config.time_embed_dim
    cond = (_end_taps(w[:, cut:]) @ ce.T).reshape(3, w.shape[0], len(ce))
    cond[0] += params[f"{name}.b"][:, None]
    return w[:, :ch], cond, _end_taps(w[:, ch:cut])


def _fusion(h, te, parts, workspace=None):
    """Fusion conv of the guarded level input h and the time embedding te (1 or
    B rows), given its ``_fusion_parts``; returns the guarded output and the
    level conv's cache."""
    w, cond, w_time = parts
    # [bias + tap sum, first tap, last tap], each (out, B), for this step's t
    blocks = cond + (w_time @ te.T).reshape(3, w.shape[0], -1)
    y, cache = nn.conv1d(h, w, blocks[0], workspace=workspace, role="act")
    y[GUARD] -= blocks[1]  # the first tap reads the pad before the first position
    y[-1 - GUARD] -= blocks[2]  # the last tap reads the pad past the last
    return y, cache


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PreparedNet:
    """The part of an inference forward that no DDIM step changes (``prepare``).

    ``folded`` maps each residual block (``enc0.res``, ...) to its conv1 with
    batch-norm folded in, (w, b).  ``fusions`` maps each fusion conv
    (``enc0.in``, ...) to (w, cond, w_time): w its level-channel weight;
    cond a (3, out, batch) stack of its bias plus the condition embedding's
    tap sum, then the condition's first and last tap, which the first and
    last position take back because they read the zero pad there; w_time
    the ``_end_taps`` stack of its time-embedding weight.  Every array is
    read-only.
    """

    config: DenoiserConfig
    batch: int
    folded: Mapping[str, tuple]
    fusions: Mapping[str, tuple]


def _checked_condition(c, batch: int | None, config: DenoiserConfig) -> np.ndarray:
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if c.ndim != 2 or c.shape[1] != config.cond_dim or batch not in (None, c.shape[0]):
        raise ConfigError(f"condition must have shape (B, {config.cond_dim})")
    if not np.all(np.isfinite(c)):
        raise NumericError("non-finite values in condition")
    return c


def prepare(params: dict, bn_state: dict, c, config: DenoiserConfig) -> PreparedNet:
    """The step-invariant part of inference for the (B, cond_dim) conditions c.

    Folds each residual block's batch-norm into its first conv, runs the
    condition MLP once and applies every fusion conv's condition taps to
    its output.  c is checked here, once; a DDIM chunk prepares once and
    passes the net to every step's ``forward``.
    """
    c = _checked_condition(c, None, config)
    ce, _ = _cond_embed_fwd(c, params)
    folded, fusions = {}, {}
    depths = range(config.depth)
    for level in [*(f"enc{i}" for i in depths), "mid", *(f"dec{i}" for i in depths)]:
        res = f"{level}.res"
        w, b = nn.fold_batchnorm(
            params[f"{res}.conv1.w"], params[f"{res}.conv1.b"],
            params[f"{res}.bn.gamma"], params[f"{res}.bn.beta"],
            bn_state[f"{res}.bn.running_mean"], bn_state[f"{res}.bn.running_var"])
        folded[res] = (_frozen(w), _frozen(b))
        parts = _fusion_parts(params, f"{level}.in", ce, config)
        fusions[f"{level}.in"] = tuple(_frozen(a) for a in parts)
    return PreparedNet(config, len(c), MappingProxyType(folded), MappingProxyType(fusions))


def _fusion_bwd(g, cache, name, params, emb, grads, workspace, input_grad=True):
    """Accumulate the fusion conv's gradients, given the embeddings emb = (te, ce)
    it read; return (g_h, g_ce)."""
    te, ce = emb
    gh, gw, gb = nn.conv1d_backward(g, cache, workspace=workspace, input_grad=input_grad)
    rows = g[GUARD:-GUARD]
    # per-tap gradient blocks: _fusion adds every tap's block to every row and
    # takes tap 0's off the first row, tap 2's off the last
    g_taps = np.empty((3,) + rows.shape[1:])  # filled in place: fewer fresh pages
    total = np.sum(rows, axis=0, out=g_taps[1])
    np.subtract(total, rows[0], out=g_taps[0])
    np.subtract(total, rows[-1], out=g_taps[2])
    g_taps = g_taps.reshape(-1, rows.shape[2])
    ch = gw.shape[1]
    cut = ch + te.shape[1]
    g_w = grads[f"{name}.w"]
    g_w[:, :ch] += gw
    for taps, e in ((g_w[:, ch:cut], te), (g_w[:, cut:], ce)):
        taps += (g_taps @ e).reshape(3, -1, e.shape[1]).transpose(1, 2, 0)
    grads[f"{name}.b"] += gb
    w_ce = params[f"{name}.w"][:, cut:]
    return gh, g_taps.T @ w_ce.transpose(2, 0, 1).reshape(-1, w_ce.shape[1])


def _resblock_fwd(x, params, prefix, folded=None, bn_state=None, workspace=None,
                  out=None):
    """Residual block of the guarded x; the sum goes into the rows ``out`` when
    given, else it is returned guarded, overwriting x with a workspace.

    Inference runs a prepared net's batch-norm-folded conv1, ``folded`` =
    (w, b); training (``folded`` None) normalizes with batch statistics and
    returns the running statistics ``bn_state`` moves to.
    """
    updates = {}
    cbn = mask = None
    if folded is None:
        w1, b1 = params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"]
        bn = (params[f"{prefix}.bn.gamma"], params[f"{prefix}.bn.beta"],
              bn_state[f"{prefix}.bn.running_mean"], bn_state[f"{prefix}.bn.running_var"])
        # batch statistics cancel conv1's bias exactly, so it is left out of
        # the normalized output and only moves the running mean
        y, c1 = nn.conv1d(x, w1, None)
        _, cbn, new_mean, new_var = nn.batchnorm(y[GUARD:-GUARD], *bn)
        updates = {
            f"{prefix}.bn.running_mean": new_mean + nn.BN_MOMENTUM * b1,
            f"{prefix}.bn.running_var": new_var,
        }
        y, mask = nn.relu(y, out=y)
    else:
        y, c1 = nn.conv1d(x, *folded, workspace=workspace, role="tmp")
        nn.relu_inplace(y)
    y, c2 = nn.conv1d(y, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"],
                      workspace=workspace, role="res")
    if out is None:  # nothing caches conv2's output
        out = np.add(x, y, out=y if workspace is None else x)
    else:
        np.add(x[GUARD:-GUARD], y[GUARD:-GUARD], out=out)
    return out, (c1, cbn, mask, c2), updates


def _resblock_bwd(g, cache, prefix, grads, workspace):
    c1, cbn, mask, c2 = cache
    gy, gw2, gb2 = nn.conv1d_backward(g, c2, workspace=workspace)
    grads[f"{prefix}.conv2.w"] += gw2
    grads[f"{prefix}.conv2.b"] += gb2
    gy = nn.relu_backward(gy, mask)
    _, ggamma, gbeta = nn.batchnorm_backward(gy[GUARD:-GUARD], cbn)  # in gy's rows
    grads[f"{prefix}.bn.gamma"] += ggamma
    grads[f"{prefix}.bn.beta"] += gbeta
    gx, gw1, gb1 = nn.conv1d_backward(gy, c1, workspace=workspace)
    grads[f"{prefix}.conv1.w"] += gw1
    grads[f"{prefix}.conv1.b"] += gb1
    return np.add(g, gx, out=gx)  # residual join


def forward(
    params: dict,
    bn_state: dict,
    x: np.ndarray,
    t,
    c: np.ndarray,
    config: DenoiserConfig,
    training: bool = False,
    *,
    workspace: nn.Workspace | None = None,
    prepared: PreparedNet | None = None,
):
    """Run the network on x of shape (B, in_channels, input_length).

    t is one step for every row or one per row; c is (B, cond_dim).
    Returns (out, cache, bn_updates).  A training-mode forward returns the
    cache that feeds ``backward``; inference returns None for it (it folds
    batch-norm away) and an empty bn_updates.

    Inference runs on a net ``prepare``d for these conditions: pass one to
    share it across calls (a DDIM chunk prepares once for all its steps),
    and c is not read; without one, the call prepares its own.  A prepared
    net of another batch size or config is a ConfigError.  An inference
    ``workspace`` lends every activation (see ``nn.Workspace``), so
    repeated calls at one shape reuse the same memory; ``out`` is always a
    fresh array.  Training allocates, since its caches outlive the call.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] != config.in_channels or x.shape[2] != config.input_length:
        raise ConfigError(
            f"input must have shape (B, {config.in_channels}, {config.input_length})"
        )
    batch = x.shape[0]
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite values in network input")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.ndim != 1 or len(t) not in (1, batch):
        raise ConfigError(f"step must be a scalar or have shape ({batch},), got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise NumericError("non-finite diffusion step")
    if training:
        if workspace is not None or prepared is not None:
            raise ConfigError("a workspace or prepared net is for inference: "
                              "training caches outlive the call")
        c = _checked_condition(c, batch, config)
        ce, ce_cache = _cond_embed_fwd(c, params)
        t = np.broadcast_to(t, (batch,))  # backward pairs each row with its own te
    te = time_embed(t, config.time_embed_dim)
    if not training:
        if prepared is None:
            prepared = prepare(params, bn_state, _checked_condition(c, batch, config),
                               config)
        if prepared.batch != batch or prepared.config != config:
            raise ConfigError(f"the net was prepared for {prepared.batch} rows of "
                              f"{prepared.config}, not {batch} rows of {config}")

    def fuse(h, name):
        """The fusion conv's guarded output and level conv cache."""
        if training:
            return _fusion(h, te, _fusion_parts(params, name, ce, config))
        return _fusion(h, te, prepared.fusions[name], workspace)

    def resblock(y, prefix, out=None):
        folded = None if training else prepared.folded[prefix]
        h, c_res, upd = _resblock_fwd(y, params, prefix, folded, bn_state, workspace, out)
        bn_updates.update(upd)
        return h, c_res

    # workspace roles: concat<i> decoder level i's input (encoder level i
    # writes its skip rows), act each fusion output (then the mid or decoder
    # block sum), res each residual branch, tmp the rest.  A role's arrays
    # are never alive at once; no conv writes the role it reads.
    bn_updates: dict = {}
    enc_caches = []
    concats = []
    length = config.input_length
    if workspace is not None:  # lend each level role at its largest (bottleneck)
        for role in ("res", "act", "tmp"):  # size first, so no first call regrows it
            _guarded(length >> config.depth, config.mid_channels, batch, workspace, role)
    h, rows = _guarded(length, config.in_channels, batch, workspace, "tmp")
    rows[...] = x.transpose(2, 1, 0)
    for i in range(config.depth):
        y, c_in = fuse(h, f"enc{i}.in")
        ch = y.shape[1]
        up_ch = config.level_channels(i + 1) if i + 1 < config.depth else config.mid_channels
        z, rows = _guarded(length, up_ch + ch, batch, workspace, f"concat{i}")
        skip = rows[:, up_ch:]
        _, c_res = resblock(y, f"enc{i}.res", out=skip)
        concats.append((z, up_ch))
        length //= 2
        h, rows = _guarded(length, ch, batch, workspace, "tmp")
        _, c_pool = nn.maxpool2(skip, out=rows, mask=training)
        enc_caches.append((c_in, c_res, c_pool) if training else None)

    y, c_in = fuse(h, "mid.in")
    h, c_res = resblock(y, "mid.res")
    mid_cache = (c_in, c_res) if training else None

    dec_caches = []
    for i in reversed(range(config.depth)):
        z, up_ch = concats[i]
        nn.upsample2(h[GUARD:-GUARD], z[GUARD:-GUARD, :up_ch])
        y, c_in = fuse(z, f"dec{i}.in")
        h, c_res = resblock(y, f"dec{i}.res")
        dec_caches.append((i, up_ch, c_in, c_res) if training else None)

    out, head_cache = nn.conv1d(h[GUARD:-GUARD], params["head.w"], params["head.b"],
                                workspace=workspace, role="tmp")

    cache = None
    if training:
        cache = {"config": config, "emb": (te, ce), "ce": ce_cache, "enc": enc_caches,
                 "mid": mid_cache, "dec": dec_caches, "head": head_cache}
    # a copy, never a view: at B = 1, (L, 1, B) -> (B, 1, L) is contiguous
    return out.transpose(2, 1, 0).copy(), cache, bn_updates


def backward(g_out: np.ndarray, cache: dict, params: dict, *,
             out: np.ndarray | None = None,
             workspace: nn.Workspace | None = None) -> dict:
    """Gradient of a scalar loss w.r.t. every parameter, given dL/d(out) (B, C, L).

    Returns views, keyed as ``param_spec``, into one zeroed float64 vector
    in that order: ``out`` when given, else a fresh one.  A ``workspace``
    lends the conv backward's products (``nn.conv1d_backward``).
    """
    config: DenoiserConfig = cache["config"]
    if out is None:
        out = np.zeros(param_count(config))
    else:
        out.fill(0.0)
    grads = unflatten_params(out, param_spec(config))
    emb = cache["emb"]
    g_ce = 0.0

    g = np.ascontiguousarray(np.asarray(g_out, dtype=float).transpose(2, 1, 0))
    gh, gw, gb = nn.conv1d_backward(g, cache["head"], workspace=workspace)
    grads["head.w"] += gw
    grads["head.b"] += gb
    g, rows = _guarded(*gh.shape)  # the 1-wide head reads no guard rows
    rows[...] = gh

    g_skip = {}
    for i, up_ch, c_in, c_res in reversed(cache["dec"]):
        g = _resblock_bwd(g, c_res, f"dec{i}.res", grads, workspace)
        gz, ge = _fusion_bwd(g, c_in, f"dec{i}.in", params, emb, grads, workspace)
        g_ce = g_ce + ge
        g_skip[i] = gz[GUARD:-GUARD, up_ch:]
        length, _, batch = g_skip[i].shape
        g, rows = _guarded(length // 2, up_ch, batch)
        nn.upsample2_backward(gz[GUARD:-GUARD, :up_ch], out=rows)

    c_in, c_res = cache["mid"]
    g = _resblock_bwd(g, c_res, "mid.res", grads, workspace)
    g, ge = _fusion_bwd(g, c_in, "mid.in", params, emb, grads, workspace)
    g_ce = g_ce + ge

    for i in reversed(range(config.depth)):
        c_in, c_res, c_pool = cache["enc"][i]
        g_pool = g[GUARD:-GUARD]
        g, rows = _guarded(*g_skip[i].shape)
        nn.maxpool2_backward(g_pool, c_pool, out=rows)
        rows += g_skip[i]
        g = _resblock_bwd(g, c_res, f"enc{i}.res", grads, workspace)
        # nothing reads the gradient of the network input
        g, ge = _fusion_bwd(g, c_in, f"enc{i}.in", params, emb, grads, workspace,
                            input_grad=i > 0)
        g_ce = g_ce + ge

    _cond_embed_bwd(g_ce, cache["ce"], grads)
    return grads


def gradient(params: dict, bn_state: dict, batch, loss_fn, config: DenoiserConfig):
    """Training-mode forward/backward for one batch.

    batch is (x_t, t, c); loss_fn maps the prediction to (value, dL/dpred).
    Returns (loss, grads, bn_updates).  Raises NumericError on a
    non-finite loss so divergence surfaces with context.
    """
    x_t, t, c = batch
    pred, cache, bn_updates = forward(params, bn_state, x_t, t, c, config, training=True)
    loss, g_pred = loss_fn(pred)
    if not math.isfinite(loss):
        raise NumericError(f"non-finite training loss: {loss!r}")
    grads = backward(g_pred, cache, params)
    return loss, grads, bn_updates
