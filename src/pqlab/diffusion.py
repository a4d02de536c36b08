"""Noise schedule and closed-form forward-process algebra.

The forward (noising) process at step t in 1..T is

    x_t = sqrt(abar_t) * x0 + sqrt(1 - abar_t) * eps,    eps ~ N(0, I)

with abar_t the running product of alpha_t = 1 - beta_t.  Step 0 is the
identity (abar_0 = 1 by convention).  Training may regress any of three
equivalent targets:

    eps  the injected noise
    x0   the clean signal
    v    sqrt(abar_t) * eps - sqrt(1 - abar_t) * x0

and ``recover_x0`` / ``recover_eps`` invert each choice exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError

DEFAULT_T = 1000
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02

MODES = ("eps", "x0", "v")


@dataclass(frozen=True)
class NoiseSchedule:
    """beta/alpha/alpha_bar tables for T steps, index t-1 holds step t."""

    beta: np.ndarray

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 1 or beta.size < 1:
            raise ConfigError("beta must be a non-empty 1-d sequence")
        if not np.all((beta > 0.0) & (beta < 1.0)):
            raise ConfigError("every beta_t must lie strictly in (0, 1)")
        object.__setattr__(self, "beta", beta)

    @property
    def T(self) -> int:
        return len(self.beta)

    @property
    def alpha(self) -> np.ndarray:
        return 1.0 - self.beta

    @property
    def alpha_bar(self) -> np.ndarray:
        return np.cumprod(self.alpha)

    def alpha_bar_at(self, t) -> np.ndarray:
        """abar_t for integer step(s) t in 0..T; t=0 returns 1."""
        t = np.asarray(t, dtype=np.int64)
        if np.any(t < 0) or np.any(t > self.T):
            raise DataError(f"step index out of range 0..{self.T}")
        table = np.concatenate(([1.0], self.alpha_bar))
        return table[t]


def build_schedule(
    T: int = DEFAULT_T,
    beta_start: float = DEFAULT_BETA_START,
    beta_end: float = DEFAULT_BETA_END,
) -> NoiseSchedule:
    """Linear beta schedule over T steps (beta_1 = start, beta_T = end)."""
    if T < 1:
        raise ConfigError("T must be at least 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError("need 0 < beta_start <= beta_end < 1")
    return NoiseSchedule(np.linspace(beta_start, beta_end, T))


def _coeffs(sched: NoiseSchedule, t, ndim: int):
    """sqrt(abar_t) and sqrt(1-abar_t), shaped to broadcast over samples."""
    abar = sched.alpha_bar_at(t)
    if abar.ndim == 1:  # per-sample steps: (B,) -> (B, 1, 1, ...)
        abar = abar.reshape((-1,) + (1,) * (ndim - 1))
    return np.sqrt(abar), np.sqrt(1.0 - abar), abar


def forward_diffuse(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form noising: sqrt(abar_t)*x0 + sqrt(1-abar_t)*eps."""
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x0.shape != eps.shape:
        raise DataError("x0 and eps must have the same shape")
    sa, sb, _ = _coeffs(sched, t, x0.ndim)
    return sa * x0 + sb * eps


def v_target(x0: np.ndarray, eps: np.ndarray, t, sched: NoiseSchedule) -> np.ndarray:
    """Velocity target: sqrt(abar_t)*eps - sqrt(1-abar_t)*x0."""
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x0.shape != eps.shape:
        raise DataError("x0 and eps must have the same shape")
    sa, sb, _ = _coeffs(sched, t, x0.ndim)
    return sa * eps - sb * x0


def training_target(mode: str, x0, eps, t, sched: NoiseSchedule) -> np.ndarray:
    """The regression target for the chosen parameterization."""
    if mode == "eps":
        return np.asarray(eps, dtype=float)
    if mode == "x0":
        return np.asarray(x0, dtype=float)
    if mode == "v":
        return v_target(x0, eps, t, sched)
    raise ConfigError(f"unknown prediction mode {mode!r}")


def recover_x0(x_t, prediction, mode: str, t, sched: NoiseSchedule) -> np.ndarray:
    """Invert the parameterization to the clean signal estimate."""
    x_t = np.asarray(x_t, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if x_t.shape != prediction.shape:
        raise DataError("x_t and prediction must have the same shape")
    if mode == "x0":
        return prediction
    sa, sb, abar = _coeffs(sched, t, x_t.ndim)
    if mode == "eps":
        if np.any(abar == 0.0):
            raise NumericError("alpha_bar is zero; eps inversion is singular")
        return (x_t - sb * prediction) / sa
    if mode == "v":
        return sa * x_t - sb * prediction
    raise ConfigError(f"unknown prediction mode {mode!r}")


def recover_eps(x_t, prediction, mode: str, t, sched: NoiseSchedule) -> np.ndarray:
    """Invert the parameterization to the noise estimate."""
    x_t = np.asarray(x_t, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if x_t.shape != prediction.shape:
        raise DataError("x_t and prediction must have the same shape")
    if mode == "eps":
        return prediction
    sa, sb, abar = _coeffs(sched, t, x_t.ndim)
    if mode == "x0":
        if np.any(abar == 1.0):
            raise NumericError("alpha_bar is one; x0 inversion is singular")
        return (x_t - sa * prediction) / sb
    if mode == "v":
        return sa * prediction + sb * x_t
    raise ConfigError(f"unknown prediction mode {mode!r}")


def x0_coefficients(mode: str, t, sched: NoiseSchedule):
    """The scale d(x0_hat)/d(prediction) at step(s) t, shaped like t.

    recover_x0 is affine in the prediction for every mode, so this scale is
    its whole Jacobian diagonal; training chains data-space loss gradients
    back to the network output through it.
    """
    abar = sched.alpha_bar_at(t)
    if mode == "x0":
        return np.ones_like(np.asarray(abar, dtype=float))
    if mode == "eps":
        if np.any(abar == 0.0):
            raise NumericError("alpha_bar is zero; eps inversion is singular")
        return -np.sqrt(1.0 - abar) / np.sqrt(abar)
    if mode == "v":
        return -np.sqrt(1.0 - abar)
    raise ConfigError(f"unknown prediction mode {mode!r}")
