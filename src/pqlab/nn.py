"""Minimal numpy layer kit with hand-written backward passes.

Every forward returns (output, cache); the matching backward consumes
the upstream gradient and the cache and returns gradients for inputs
and parameters.  Activations are position-major, (length, channels,
batch).  Convolutions are stride-1 with odd kernels K and same (zero)
padding, on guarded arrays: (L + 2p, C, B) with p = (K - 1) / 2 zero rows
at each end.  The K positions a tap window reads are then one contiguous
(K * C, B) matrix, and one read-only strided view with x's own strides
holds every window, overlapping in memory (the MEC lowering of Cho and
Brand 2017, arXiv:1706.06873, without its copy).  A convolution is one
matmul of the tap-stacked weights (out, K * C) against that view, written
straight into the guarded output's rows, then the bias, if any, as one
(out, B) block (a conv feeding training batch-norm has none: the batch
mean cancels it; an inference caller may give each row its own).  Its
backward runs the flipped tap stack against windows of the guarded output
gradient, and the gradient against the input windows.  ``tap_bias`` adds
the convolution of channels constant along the length axis (the
denoiser's embeddings) as one (out, B) block per tap, dropped where the
tap reads the zero pad.

Batch-norm here is the training form, normalizing with batch
statistics; for inference ``fold_batchnorm`` folds the frozen statistics
into the preceding conv (Jacob et al. 2018, arXiv:1712.05877, §3.2), once
per prepared network (``denoiser.prepare``), not once per call.
All computation is float64; determinism follows from fixed operand
order.  Kernels that work in place or share a pass (batch-norm forms
x - mean once and writes its output into x; its backward, ``relu(out=)``
and ``relu_backward`` write into their input) keep the bits of the plain
expressions, except that a backward kernel may give a zero gradient
entry the other sign, which no sum of nonzero terms and no Adam step can
tell apart.  The pooling kernels write into ``out`` when given, so a
caller can place their rows inside a guarded array; max-pool writes one
``np.maximum``, and training forms its backward's mask beside it.

An inference caller that runs the same shapes over and over (the DDIM
sampler) passes a ``Workspace``: ``conv1d`` then writes its output into
an array the workspace lends, so repeated calls reuse the same memory
instead of allocating and freeing (and page-faulting in) fresh arrays
each time.  Training lends only what dies inside one call: the conv
backward's weight-gradient products (and, in ``training``, the gradient
vector and Adam's scratch).  Without a workspace, ``lend`` allocates; a
lent array is overwritten by the next lend under its role, so caches
made with a workspace must not outlive the call.
"""

from __future__ import annotations

import math

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _pad(k: int) -> int:
    """Guard rows per end for an odd kernel width k; an even width is refused."""
    if k % 2 == 0:
        raise ValueError(f"conv1d needs an odd kernel width, got {k}")
    return (k - 1) // 2


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """Read-only (L, K * C, B) view of a C-ordered (L + K - 1, C, B) x: row l is x[l : l + K]."""
    span, c, batch = x.shape
    view = np.ndarray((span - k + 1, k * c, batch), x.dtype, x, 0, x.strides)
    view.setflags(write=False)  # unlike as_strided, the constructor checks x holds the view
    return view


class Workspace:
    """Arrays lent for repeated inference calls at the same shapes.

    Each role owns one flat buffer; ``lend(role, shape)`` returns
    its first prod(shape) elements as a C-ordered array, growing the
    buffer when a larger shape is asked for.  So a role holds one live
    array at a time and keeps the largest size ever lent under it: the
    caller picks roles so that arrays alive at the same time never share
    one, and shapes of one role (a batch change, the levels of a U-Net)
    share its memory.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def lend(self, role: str, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(role)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[role] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    @property
    def buffers(self) -> tuple:
        """Every buffer held, for accounting (their nbytes) and alias checks."""
        return tuple(self._buffers.values())


def lend(workspace: Workspace | None, role: str, shape, dtype=np.float64, *,
         guard: int = 0) -> np.ndarray:
    """A workspace's array for this role, or a fresh one without a workspace;
    its first and last ``guard`` rows (axis 0) are zeroed, nothing else written."""
    a = np.empty(shape, dtype) if workspace is None else workspace.lend(role, shape, dtype)
    if guard:
        a[:guard] = 0.0
        a[-guard:] = 0.0
    return a


def conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, *,
           workspace: Workspace | None = None, role: str = "conv.out"):
    """y[p+l,o,b] = sum_{c,k} w[o,c,k] x[l+k,c,b] + b[o] for a guarded x (b None: no bias).

    x is (L + 2p, C, B) with p = (K - 1) / 2 zero guard rows at each end;
    y is (L + 2p, out, B) with its guard rows zeroed, so it can feed the
    next conv of the same width.  b is (out,), or an (out, B) block whose
    column j is row j's own bias; either way one (out, B) block is added
    to every position (numpy's broadcast of b[:, None] along the middle
    axis is up to twice as slow, for the same bits).  With a
    workspace y is lent under ``role``, which must not hold x: numpy
    would copy an operand that shares memory with the output.
    """
    out, c, k = w.shape
    pad = _pad(k)
    x = np.ascontiguousarray(x)
    span, _, batch = x.shape
    wk = w.transpose(0, 2, 1).reshape(out, k * c)
    y = lend(workspace, role, (span, out, batch), guard=pad)
    rows = y[pad : span - pad]
    np.matmul(wk, _windows(x, k), out=rows)
    if b is not None:
        rows += b if b.ndim == 2 else b.repeat(batch).reshape(out, batch)
    return y, (x, w)


def conv1d_backward(gy: np.ndarray, cache, *, workspace: Workspace | None = None,
                    input_grad: bool = True):
    """Gradients (gx, gw, gb) of conv1d; gx is None when input_grad is False.

    gy is the guarded output gradient, zero in its guard rows, and gx is
    guarded the same way.  The weight gradient's per-position products,
    (L, K * C, out), live only inside the call; with a workspace they are
    lent under ``conv.gw``.
    """
    x, w = cache
    out, c, k = w.shape
    pad = _pad(k)
    gy = np.ascontiguousarray(gy)
    span, _, batch = x.shape
    rows = gy[pad : span - pad]
    gb = rows.sum(axis=(0, 2))
    prods = lend(workspace, "conv.gw", (span - 2 * pad, k * c, out))
    np.matmul(_windows(x, k), rows.transpose(0, 2, 1), out=prods)
    gw = prods.sum(axis=0).reshape(k, c, out).transpose(2, 1, 0)
    if not input_grad:
        return None, gw, gb
    # gx[p+l] = sum_k w[:, :, k].T gy[l+K-1-k]: flipped taps against gy's windows
    wf = w.transpose(1, 2, 0)[:, ::-1].reshape(c, k * out)
    gx = lend(None, "conv.gx", (span, c, batch), guard=pad)
    np.matmul(wf, _windows(gy, k), out=gx[pad : span - pad])
    return gx, gw, gb


def tap_bias(y: np.ndarray, w: np.ndarray, emb: np.ndarray):
    """Add, in place, the conv of per-row constant channels to y; return the cache.

    y holds a conv output's rows (L, O, B); w (O, E, K) holds the weights
    of E input channels whose value for row b is emb[b] at every
    position.  Tap k adds the (O, B) block T_k = w[:, :, k] @ emb.T
    wherever it reads inside the input: the sum of all T_k goes to every
    position, and each T_k is taken back within pad of the end where that
    tap reads the zero pad.  Rows need not share their embedding.
    """
    out, e, k = w.shape
    pad = _pad(k)
    length = y.shape[0]
    wk = w.transpose(2, 0, 1).reshape(k * out, e)
    taps = (wk @ emb.T).reshape(k, out, emb.shape[0])
    y += taps.sum(axis=0)
    for j in range(pad):  # the taps reading the pad before the start, then past the end
        y[: pad - j] -= taps[j]
    for j in range(1, pad + 1):
        y[max(0, length - j) :] -= taps[pad + j]
    return wk, emb


def tap_bias_backward(gy: np.ndarray, cache):
    """Gradients (gw of shape (O, E, K), gemb of shape (B, E)) of tap_bias."""
    wk, emb = cache
    length, out, batch = gy.shape
    k = wk.shape[0] // out
    pad = (k - 1) // 2
    sums = np.empty((k, out, batch))
    for j in range(k):  # the positions where tap j reads inside the input
        np.sum(gy[max(0, pad - j) : max(0, length + pad - j)], axis=0, out=sums[j])
    sums = sums.reshape(k * out, batch)
    gw = (sums @ emb).reshape(k, out, emb.shape[1]).transpose(1, 2, 0)
    return gw, sums.T @ wk


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """y = x @ w.T + b for x of shape (B, d_in)."""
    return x @ w.T + b, (x, w)


def linear_backward(gy: np.ndarray, cache):
    x, w = cache
    return gy @ w, gy.T @ x, gy.sum(axis=0)


def relu(x: np.ndarray, *, out: np.ndarray | None = None):
    """(max(x, 0), mask of x > 0); ``out=x`` overwrites x.

    ``np.maximum(-0.0, 0.0)`` is +0.0, as selecting 0.0 where x <= 0
    gives, so on finite x the bits are those of that selection.
    """
    mask = x > 0.0
    return np.maximum(x, 0.0, out=out), mask


def relu_inplace(x: np.ndarray) -> np.ndarray:
    """Overwrite x with max(x, 0) without forming the mask (inference)."""
    return np.maximum(x, 0.0, out=x)


def relu_backward(gy: np.ndarray, mask):
    """gy where the input was positive, zero elsewhere; overwrites gy.

    A multiply by the mask: a masked-out entry is 0.0 times gy, so it
    keeps gy's sign (a signed zero, which no sum or Adam step can tell
    from +0.0) and a non-finite gy stays non-finite there.
    """
    return np.multiply(gy, mask, out=gy)


def batchnorm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
):
    """Training-mode per-channel normalization of x (L, C, B); overwrites x.

    Normalizes with the current batch statistics (pooled over L*B
    elements per channel, so a batch of one still normalizes over length)
    and returns the updated running statistics.  x - mean is formed once,
    for the variance and for xhat: numpy's ``var`` is the same sum of
    squared deviations from the same mean over n, so the bits match
    ``x.mean``/``x.var``.
    """
    n = x.shape[0] * x.shape[2]
    mean = x.sum(axis=(0, 2), keepdims=True) / n
    xhat = x - mean
    y = np.square(xhat, out=x)
    var = y.sum(axis=(0, 2)) / n
    mean = mean[0, :, 0]
    new_mean = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
    new_var = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv[:, None]
    np.multiply(xhat, gamma[:, None], out=y)
    y += beta[:, None]
    return y, (xhat, inv, gamma), new_mean, new_var


def batchnorm_backward(gy: np.ndarray, cache):
    """Gradients (gx, ggamma, gbeta) of batchnorm; gx is formed in gy's memory."""
    xhat, inv, gamma = cache
    n = gy.shape[0] * gy.shape[2]
    t = gy * xhat
    ggamma = t.sum(axis=(0, 2))
    gbeta = gy.sum(axis=(0, 2))
    gx = np.multiply(gy, gamma[:, None], out=gy)  # dL/dxhat
    sum_g = gx.sum(axis=(0, 2), keepdims=True)
    sum_gx = np.multiply(gx, xhat, out=t).sum(axis=(0, 2), keepdims=True)
    # (inv / n) * (n * gxhat - sum_g - xhat * sum_gx), in place
    np.multiply(xhat, sum_gx, out=t)
    gx *= n
    gx -= sum_g
    gx -= t
    gx *= inv[:, None] / n
    return gx, ggamma, gbeta


def fold_batchnorm(w, b, gamma, beta, running_mean, running_var):
    """Weights and bias of a conv followed by inference-mode batch-norm."""
    scale = gamma / np.sqrt(running_var + BN_EPS)
    return w * scale[:, None, None], (b - running_mean) * scale + beta


def maxpool2(x: np.ndarray, *, out: np.ndarray | None = None, mask: bool = True):
    """Halve the length axis (0), keeping the per-pair maximum (the first on a tie).

    Returns (y, take_second): the mask of second > first that
    ``maxpool2_backward`` routes by, or None when ``mask`` is off
    (inference).  The max is one ``np.maximum(second, first)``, which
    returns its second operand, the first element, on a tie of +0.0 and
    -0.0, so on finite input it has the bytes of selecting by the mask.  A
    NaN propagates where that selection would drop it.
    """
    if x.shape[0] % 2:
        raise ValueError("maxpool2 needs an even length")
    first, second = x[0::2], x[1::2]
    y = np.empty(first.shape) if out is None else out
    np.maximum(second, first, out=y)
    return y, np.greater(second, first) if mask else None


def maxpool2_backward(gy: np.ndarray, take_second, *, out: np.ndarray | None = None):
    """gy routed to each pair's kept position, zero at the other (see relu_backward)."""
    half = gy.shape[0]
    gx = np.empty((2 * half,) + gy.shape[1:]) if out is None else out
    np.multiply(gy, take_second, out=gx[1::2])
    np.multiply(gy, ~take_second, out=gx[0::2])
    return gx


def upsample2(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Nearest-neighbor doubling of the length axis (0) of x, written into out."""
    out[0::2] = x
    out[1::2] = x
    return out


def upsample2_backward(gy: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of each output pair's gradients (one add, not a length-2 reduction)."""
    return np.add(gy[0::2], gy[1::2], out=out)
