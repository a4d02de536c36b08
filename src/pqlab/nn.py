"""Minimal numpy layer kit with hand-written backward passes.

Every forward returns (output, cache); the matching backward consumes
the upstream gradient and the cache and returns gradients for inputs
and parameters.  Activations are channel-major, (channels, batch,
length), so a (C, B, L) input is one (C, B * L) matrix.  A convolution
is one GEMM of the stacked per-tap weights (K * out, C) against it; each
tap's product, zeroed where the tap reads the zero pad, is then added
shifted along the flattened output.  Its backward shifts the output
gradient back and runs two GEMMs.  Convolutions are stride-1 with odd
kernels and same (zero) padding.

``tap_bias`` adds the convolution of input channels that hold one value
per row at every position (the denoiser's time and condition
embeddings) without building their columns: each tap contributes a
per-row bias, dropped where the tap falls in the zero pad.

Batch-norm here is the training form, normalizing with batch
statistics; at inference ``fold_batchnorm`` folds the frozen statistics
into the preceding conv (Jacob et al. 2018, arXiv:1712.05877, §3.2).
All computation is float64; determinism follows from fixed operand
order.  Kernels that work in place or share a pass (batch-norm forms
x - mean once; its backward, ``relu(out=)`` and ``relu_backward`` write
into their input) keep the bits of the plain expressions, except that a
backward kernel may give a zero gradient entry the other sign, which no
sum of nonzero terms and no Adam step can tell apart.

An inference caller that runs the same shapes over and over (the DDIM
sampler) passes a ``Workspace``: ``conv1d`` then writes its tap products
and its output, and ``maxpool2`` its output, into arrays the workspace
lends, so repeated calls reuse the same memory instead of allocating
and freeing (and page-faulting in) fresh arrays each time.  Training
lends only what dies inside one call: ``conv1d_backward``'s
shifted-gradient buffer (and, in ``training``, the gradient vector and
Adam's scratch); its forward caches live until the backward and keep
allocating, though a conv's tap products still die inside the call, so
the next conv reuses their memory.  Without a workspace, ``lend``
allocates and every function behaves as before; a lent array is
overwritten by the next lend under its role, so caches made with a
workspace must not outlive the call.
"""

from __future__ import annotations

import math

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _tap_span(shift: int, length: int):
    """Output positions [lo, hi) where a tap reading l + shift is inside the input."""
    lo = min(length, max(0, -shift))
    return lo, max(lo, min(length, length - shift))


def _flat_shift(shift: int, n: int):
    """Slices (dst, src) with dst[i] = src[i + shift] along a flat axis of n."""
    return slice(max(0, -shift), n - max(0, shift)), slice(max(0, shift), n + min(0, shift))


def _clear_outside(rows: np.ndarray, lo: int, hi: int) -> None:
    """Zero positions outside [lo, hi) of every row of a (..., B, L) view."""
    if lo:
        rows[..., :lo] = 0.0
    if hi < rows.shape[-1]:
        rows[..., hi:] = 0.0


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


def lend(workspace: Workspace | None, role: str, shape, dtype=np.float64) -> np.ndarray:
    """A workspace's array for this role, or a fresh one without a workspace."""
    if workspace is None:
        return np.empty(shape, dtype)
    return workspace.lend(role, shape, dtype)


def conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, *,
           workspace: Workspace | None = None, role: str = "conv.out"):
    """y[o,b,l] = sum_{c,k} w[o,c,k] x[c,b,l+k-pad] + b[o] for x of shape (C, B, L).

    y is copied out of the tap products, so they die with the call: a
    caller that caches y (training) holds its size, not K times it, and
    the next conv reuses the freed products' memory.  With a workspace the
    tap products are lent under ``conv.taps`` and y under ``role``.  x is
    read only by the product, before y is written, so ``role`` may be the
    one x was lent under.  A one-channel input forms the products as a
    broadcast multiply: a K = 1 GEMM rounds each product once, so the bits
    are the same, at a fraction of the time.
    """
    c, batch, length = x.shape
    out, _, k = w.shape
    n = batch * length
    pad = (k - 1) // 2
    xf = x.reshape(c, n)
    wk = w.transpose(2, 0, 1).reshape(k * out, c)
    # one product gives every tap's P_k at every input position; tap k's
    # output at l is P_k at l + k - pad
    p = lend(workspace, "conv.taps", (k * out, n))
    if c == 1:
        np.multiply(wk, xf, out=p)
    else:
        np.matmul(wk, xf, out=p)
    p = p.reshape(k, out, n)
    y = lend(workspace, role, (out, n))
    y[...] = p[pad]
    # the shifted sum runs over y as one flat vector (a contiguous add is
    # several times faster than row by row); a read that crosses into the
    # next row or channel lands on a product cleared as reading the pad
    yf = y.reshape(out * n)
    for j in range(k):
        if j != pad:
            lo, hi = _tap_span(pad - j, length)
            _clear_outside(p[j].reshape(out, batch, length), lo, hi)
            dst, src = _flat_shift(j - pad, out * n)
            yf[dst] += p[j].reshape(out * n)[src]
    y += b[:, None]
    return y.reshape(out, batch, length), (xf, wk, x.shape)


def conv1d_backward(gy: np.ndarray, cache, *, workspace: Workspace | None = None,
                    input_grad: bool = True):
    """Gradients (gx, gw, gb) of conv1d; gx is None when input_grad is False.

    The output gradient shifted to each tap's read position, (K, out, B*L),
    lives only inside the call; with a workspace it is lent under
    ``conv.grad``.
    """
    xf, wk, shape = cache
    c, batch, length = shape
    out = gy.shape[0]
    k = wk.shape[0] // out
    n = batch * length
    pad = (k - 1) // 2
    g2 = gy.reshape(out, n)
    gb = g2.sum(axis=1)
    # dL/dP_k: the output gradient moved back to the input position tap k
    # read; what the shift leaves unwritten lies in the cleared pad reads
    gp = lend(workspace, "conv.grad", (k, out, n))
    for j in range(k):
        dst, src = _flat_shift(pad - j, n)
        gp[j][:, dst] = g2[:, src]
        lo, hi = _tap_span(pad - j, length)
        _clear_outside(gp[j].reshape(out, batch, length), lo, hi)
    gp = gp.reshape(k * out, n)
    gw = (gp @ xf.T).reshape(k, out, c).transpose(1, 2, 0)
    gx = (wk.T @ gp).reshape(shape) if input_grad else None
    return gx, gw, gb


def tap_bias(y: np.ndarray, w: np.ndarray, emb: np.ndarray):
    """Add, in place, the conv of per-row constant channels to y; return the cache.

    y is a conv output (O, B, L); w (O, E, K) holds the weights of E input
    channels whose value for row b is emb[b] at every position.  Tap k
    adds T_k = w[:, :, k] @ emb.T, shape (O, B), wherever it reads inside
    the input: the sum of all T_k goes everywhere, and each T_k is taken
    back within pad of the end where that tap reads the zero pad.  Rows
    need not share their embedding.
    """
    out, e, k = w.shape
    length = y.shape[2]
    pad = (k - 1) // 2
    wk = w.transpose(2, 0, 1).reshape(k * out, e)
    taps = (wk @ emb.T).reshape(k, out, emb.shape[0])
    y += taps.sum(axis=0)[:, :, None]
    for j in range(k):
        lo, hi = _tap_span(j - pad, length)
        if lo:
            y[:, :, :lo] -= taps[j][:, :, None]
        if hi < length:
            y[:, :, hi:] -= taps[j][:, :, None]
    return wk, emb


def tap_bias_backward(gy: np.ndarray, cache):
    """Gradients (gw of shape (O, E, K), gemb of shape (B, E)) of tap_bias."""
    wk, emb = cache
    out, batch, length = gy.shape
    k = wk.shape[0] // out
    pad = (k - 1) // 2
    sums = np.empty((k, out, batch))
    for j in range(k):
        lo, hi = _tap_span(j - pad, length)
        sums[j] = gy[:, :, lo:hi].sum(axis=2)
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
    """Training-mode per-channel normalization over the batch and length axes.

    Normalizes with the current batch statistics (pooled over B*L
    elements per channel, so a batch of one still normalizes over length)
    and returns the updated running statistics.  x - mean is formed once,
    for the variance and for xhat: numpy's ``var`` is the same sum of
    squared deviations from the same mean over n, so the bits match
    ``x.mean``/``x.var``.
    """
    n = x.shape[1] * x.shape[2]
    mean = x.sum(axis=(1, 2), keepdims=True) / n
    xhat = x - mean
    y = np.square(xhat)
    var = y.sum(axis=(1, 2)) / n
    mean = mean[:, 0, 0]
    new_mean = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
    new_var = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv[:, None, None]
    np.multiply(xhat, gamma[:, None, None], out=y)
    y += beta[:, None, None]
    return y, (xhat, inv, gamma), new_mean, new_var


def batchnorm_backward(gy: np.ndarray, cache):
    """Gradients (gx, ggamma, gbeta) of batchnorm; gx is formed in gy's memory."""
    xhat, inv, gamma = cache
    n = gy.shape[1] * gy.shape[2]
    t = gy * xhat
    ggamma = t.sum(axis=(1, 2))
    gbeta = gy.sum(axis=(1, 2))
    gx = np.multiply(gy, gamma[:, None, None], out=gy)  # dL/dxhat
    sum_g = gx.sum(axis=(1, 2), keepdims=True)
    sum_gx = np.multiply(gx, xhat, out=t).sum(axis=(1, 2), keepdims=True)
    # (inv / n) * (n * gxhat - sum_g - xhat * sum_gx), in place
    np.multiply(xhat, sum_gx, out=t)
    gx *= n
    gx -= sum_g
    gx -= t
    gx *= inv[:, None, None] / n
    return gx, ggamma, gbeta


def fold_batchnorm(w, b, gamma, beta, running_mean, running_var):
    """Weights and bias of a conv followed by inference-mode batch-norm."""
    scale = gamma / np.sqrt(running_var + BN_EPS)
    return w * scale[:, None, None], (b - running_mean) * scale + beta


def maxpool2(x: np.ndarray, *, workspace: Workspace | None = None, mask: bool = True):
    """Halve the length axis, keeping the per-pair maximum (the first on a tie).

    Returns (y, take_second): the mask that ``maxpool2_backward`` routes
    by, or None when ``mask`` is off (inference).  Without a mask the max
    is one ``np.maximum(second, first)``, which returns its second
    operand, the first element, on a tie of +0.0 and -0.0, so it keeps the
    masked selection's bytes on finite input.  A NaN then propagates where
    the masked selection would drop it.  With a workspace the output is
    lent under ``maxpool2``.
    """
    if x.shape[2] % 2:
        raise ValueError("maxpool2 needs an even length")
    first, second = x[:, :, 0::2], x[:, :, 1::2]
    y = lend(workspace, "maxpool2", first.shape)
    if not mask:
        return np.maximum(second, first, out=y), None
    take_second = np.greater(second, first)
    np.copyto(y, first)
    np.copyto(y, second, where=take_second)
    return y, take_second


def maxpool2_backward(gy: np.ndarray, take_second):
    """gy routed to each pair's kept position, zero at the other (see relu_backward)."""
    c, b, half = gy.shape
    gx = np.empty((c, b, half, 2))
    np.multiply(gy, take_second, out=gx[..., 1])
    np.multiply(gy, ~take_second, out=gx[..., 0])
    return gx.reshape(c, b, 2 * half)


def upsample2(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Nearest-neighbor doubling of the length axis of x, written into out."""
    out[:, :, 0::2] = x
    out[:, :, 1::2] = x
    return out


def upsample2_backward(gy: np.ndarray) -> np.ndarray:
    """Sum of each output pair's gradients (one add, not a length-2 reduction)."""
    return np.add(gy[:, :, 0::2], gy[:, :, 1::2])
