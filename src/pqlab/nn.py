"""Minimal numpy layer kit with hand-written backward passes.

Every forward returns (output, cache); the matching backward consumes
the upstream gradient and the cache and returns gradients for inputs
and parameters.  Shapes follow the (batch, channels, length) layout.
Convolutions are stride-1 with odd kernels and same padding.  All
computation is float64; determinism follows from fixed operand order.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """y[b,o,l] = sum_{c,k} w[o,c,k] x[b,c,l+k-pad] + b[o]."""
    k = w.shape[2]
    pad = (k - 1) // 2
    if pad:
        length = x.shape[2]
        xp = np.zeros(x.shape[:2] + (length + 2 * pad,), dtype=x.dtype)
        xp[:, :, pad : pad + length] = x
    else:
        xp = x
    cols = sliding_window_view(xp, k, axis=2)  # (B, Cin, L, K)
    y = np.einsum("bclk,ock->bol", cols, w, optimize=True)
    y += b[None, :, None]
    return y, (xp, w, pad, x.shape[2])


def conv1d_backward(gy: np.ndarray, cache):
    xp, w, pad, length = cache
    k = w.shape[2]
    cols = sliding_window_view(xp, k, axis=2)
    gw = np.einsum("bol,bclk->ock", gy, cols, optimize=True)
    gb = gy.sum(axis=(0, 2))
    gcols = np.einsum("bol,ock->bclk", gy, w, optimize=True)
    gxp = np.zeros_like(xp)
    for j in range(k):
        gxp[:, :, j : j + length] += gcols[:, :, :, j]
    gx = gxp[:, :, pad : pad + length] if pad else gxp
    return gx, gw, gb


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
    training: bool,
):
    """Per-channel normalization over the batch and length axes.

    Training mode normalizes with the current batch statistics (pooled
    over B*L elements per channel, so a batch of one still normalizes
    over length) and returns updated running statistics; inference mode
    uses the frozen running statistics.
    """
    if training:
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        new_mean = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
        new_var = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    else:
        mean, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[None, :, None]) * inv[None, :, None]
    y = gamma[None, :, None] * xhat + beta[None, :, None]
    return y, (xhat, inv, gamma, training), new_mean, new_var


def batchnorm_backward(gy: np.ndarray, cache):
    xhat, inv, gamma, training = cache
    ggamma = (gy * xhat).sum(axis=(0, 2))
    gbeta = gy.sum(axis=(0, 2))
    gxhat = gy * gamma[None, :, None]
    if not training:
        return gxhat * inv[None, :, None], ggamma, gbeta
    n = gy.shape[0] * gy.shape[2]
    sum_g = gxhat.sum(axis=(0, 2), keepdims=True)
    sum_gx = (gxhat * xhat).sum(axis=(0, 2), keepdims=True)
    gx = (inv[None, :, None] / n) * (n * gxhat - sum_g - xhat * sum_gx)
    return gx, ggamma, gbeta


def maxpool2(x: np.ndarray):
    """Halve the length axis, keeping the per-pair maximum."""
    b, c, length = x.shape
    if length % 2:
        raise ValueError("maxpool2 needs an even length")
    xr = x.reshape(b, c, length // 2, 2)
    idx = xr.argmax(axis=3)
    y = np.take_along_axis(xr, idx[..., None], axis=3)[..., 0]
    return y, (idx, x.shape)


def maxpool2_backward(gy: np.ndarray, cache):
    idx, shape = cache
    b, c, length = shape
    gxr = np.zeros((b, c, length // 2, 2))
    np.put_along_axis(gxr, idx[..., None], gy[..., None], axis=3)
    return gxr.reshape(b, c, length)


def upsample2(x: np.ndarray):
    """Nearest-neighbor doubling of the length axis."""
    return np.repeat(x, 2, axis=2)


def upsample2_backward(gy: np.ndarray):
    b, c, length = gy.shape
    return gy.reshape(b, c, length // 2, 2).sum(axis=3)

