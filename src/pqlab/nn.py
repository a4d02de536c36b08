"""Minimal numpy layer kit with hand-written backward passes.

Every forward returns (output, cache); the matching backward consumes
the upstream gradient and the cache and returns gradients for inputs
and parameters.  Activations are channel-major, (channels, batch,
length), so a (C, B, L) input is one (C, B * L) matrix.  A convolution
is one GEMM of the stacked per-tap weights (K * out, C) against it; each
tap's product is then shifted into place along the length axis, dropping
what would cross into the zero pad.  Its backward shifts the output
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
order.
"""

from __future__ import annotations

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
    rows[..., :lo] = 0.0
    rows[..., hi:] = 0.0


def conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """y[o,b,l] = sum_{c,k} w[o,c,k] x[c,b,l+k-pad] + b[o] for x of shape (C, B, L)."""
    c, batch, length = x.shape
    out, _, k = w.shape
    n = batch * length
    pad = (k - 1) // 2
    xf = x.reshape(c, n)
    wk = w.transpose(2, 0, 1).reshape(k * out, c)
    # one GEMM gives every tap's product P_k at every input position; tap
    # k's output at l is P_k at l + k - pad, read within the same row
    p = (wk @ xf).reshape(k, out, n)
    y = p[pad]
    for j in range(k):
        if j != pad:
            lo, hi = _tap_span(pad - j, length)
            _clear_outside(p[j].reshape(out, batch, length), lo, hi)
            dst, src = _flat_shift(j - pad, n)
            y[:, dst] += p[j][:, src]
    y += b[:, None]
    return y.reshape(out, batch, length), (xf, wk, x.shape)


def conv1d_backward(gy: np.ndarray, cache):
    xf, wk, shape = cache
    c, batch, length = shape
    out = gy.shape[0]
    k = wk.shape[0] // out
    n = batch * length
    pad = (k - 1) // 2
    g2 = gy.reshape(out, n)
    gb = g2.sum(axis=1)
    # dL/dP_k: the output gradient moved back to the input position tap k read
    gp = np.empty((k, out, n))
    for j in range(k):
        dst, src = _flat_shift(pad - j, n)
        gp[j][:, dst] = g2[:, src]
        lo, hi = _tap_span(pad - j, length)
        _clear_outside(gp[j].reshape(out, batch, length), lo, hi)
    gp = gp.reshape(k * out, n)
    gw = (gp @ xf.T).reshape(k, out, c).transpose(1, 2, 0)
    return (wk.T @ gp).reshape(shape), gw, gb


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
        y[:, :, :lo] -= taps[j][:, :, None]
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


def relu(x: np.ndarray):
    mask = x > 0.0
    return np.where(mask, x, 0.0), mask


def relu_backward(gy: np.ndarray, mask):
    return np.where(mask, gy, 0.0)


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
    and returns the updated running statistics.
    """
    mean = x.mean(axis=(1, 2))
    var = x.var(axis=(1, 2))
    new_mean = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
    new_var = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[:, None, None]) * inv[:, None, None]
    y = gamma[:, None, None] * xhat + beta[:, None, None]
    return y, (xhat, inv, gamma), new_mean, new_var


def batchnorm_backward(gy: np.ndarray, cache):
    xhat, inv, gamma = cache
    ggamma = (gy * xhat).sum(axis=(1, 2))
    gbeta = gy.sum(axis=(1, 2))
    gxhat = gy * gamma[:, None, None]
    n = gy.shape[1] * gy.shape[2]
    sum_g = gxhat.sum(axis=(1, 2), keepdims=True)
    sum_gx = (gxhat * xhat).sum(axis=(1, 2), keepdims=True)
    gx = (inv[:, None, None] / n) * (n * gxhat - sum_g - xhat * sum_gx)
    return gx, ggamma, gbeta


def fold_batchnorm(w, b, gamma, beta, running_mean, running_var):
    """Weights and bias of a conv followed by inference-mode batch-norm."""
    scale = gamma / np.sqrt(running_var + BN_EPS)
    return w * scale[:, None, None], (b - running_mean) * scale + beta


def maxpool2(x: np.ndarray):
    """Halve the length axis, keeping the per-pair maximum (the first on a tie)."""
    if x.shape[2] % 2:
        raise ValueError("maxpool2 needs an even length")
    first, second = x[:, :, 0::2], x[:, :, 1::2]
    take_second = second > first
    return np.where(take_second, second, first), take_second


def maxpool2_backward(gy: np.ndarray, take_second):
    c, b, half = gy.shape
    gx = np.empty((c, b, half, 2))
    gx[..., 0] = np.where(take_second, 0.0, gy)
    gx[..., 1] = np.where(take_second, gy, 0.0)
    return gx.reshape(c, b, 2 * half)


def upsample2(x: np.ndarray):
    """Nearest-neighbor doubling of the length axis."""
    return np.repeat(x, 2, axis=2)


def upsample2_backward(gy: np.ndarray):
    c, b, length = gy.shape
    return gy.reshape(c, b, length // 2, 2).sum(axis=3)
