"""Composite training loss: masked core error plus finance-aware regularizers.

The core term is a masked mean squared error on the model's training target.
Seven auxiliary terms (jump, volatility clustering, global volatility, tail,
drift, pinball, spectral) are computed on reconstructed data-space sequences
and blended in with linearly warmed-up weights.  ``LossConfig``, the
``[loss]`` section, declares every loss setting (the seven weights, the
warmup and the vol-clustering window and stride); ``total_loss`` takes it
whole.  The loss-log columns are declared once, as ``_LOG_COLUMNS``.

Each auxiliary term is one batched kernel over a (G, n) block of rows that
share a valid length n.  total_loss groups the batch rows by mask length,
slices each group's valid prefixes out (padding is never read, so it may
hold anything), evaluates every kernel once per group and scatters the
weighted gradients back.  The loss terms are reached only through
total_loss; ``kurtosis`` (read by path_stats) and ``pinball_loss`` are the
public one-sequence statistics, each a kernel applied to one (1, n) row.
The truth side of the terms depends only on the truth rows:
``truth_stats`` computes it row by row, and training computes it once per
run for every slice (``truth_table``), which total_loss looks rows up in.

All sequence statistics use population (biased) moments so that the
small-sequence identities asserted in the tests are exact.  Standard
deviations carry a 1e-12 variance floor: constant windows then contribute
zero gradient instead of dividing by zero.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, NumericError

SMOOTH_L1_DELTA = 1.0
VAR_FLOOR = 1e-12
KURT_MIN_VAR = 1e-24
PINBALL_Q_LOW = 0.01
PINBALL_Q_HIGH = 0.99
DEFAULT_VOL_WINDOW = 5
DEFAULT_VOL_STRIDE = 1

TERMS = ("jump", "vol", "gvol", "kurt", "drift", "pinball", "spectral")

# column order is the on-disk contract for per-step loss logs
_LOG_COLUMNS = ("core", *TERMS, "total")
LOSS_CSV_HEADER = ",".join(("step", *_LOG_COLUMNS))


def lambda_scale(step: int, total_steps: int, warmup_fraction: float) -> float:
    """Linear warmup multiplier: 0 at step 0, 1 from warmup end onwards."""
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if not 0.0 < warmup_fraction <= 1.0:
        raise ConfigError(f"warmup_fraction must be in (0, 1], got {warmup_fraction}")
    return min(1.0, step / (warmup_fraction * total_steps))


@dataclass(frozen=True)
class LossConfig:
    """The ``[loss]`` section: auxiliary-term weights, warmup and vol-clustering window.

    Each lambda is the saturated weight reached after ``warmup_fraction`` of
    the total training steps; before that the weight ramps linearly from 0.
    ``vol_window`` and ``vol_stride`` shape the volatility-clustering term.
    """

    lambda_jump: float = 0.1
    lambda_vol: float = 0.1
    lambda_gvol: float = 0.1
    lambda_kurt: float = 0.05
    lambda_drift: float = 0.1
    lambda_pinball: float = 0.05
    lambda_spectral: float = 0.05
    warmup_fraction: float = 0.1
    vol_window: int = DEFAULT_VOL_WINDOW
    vol_stride: int = DEFAULT_VOL_STRIDE

    def __post_init__(self) -> None:
        for term in TERMS:
            value = getattr(self, f"lambda_{term}")
            if not np.isfinite(value) or value < 0.0:
                raise ConfigError(f"lambda_{term} must be finite and >= 0, got {value}")
        if not 0.0 < self.warmup_fraction <= 1.0:
            raise ConfigError(
                f"warmup_fraction must be in (0, 1], got {self.warmup_fraction}"
            )
        for name in ("vol_window", "vol_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    def annealed(self, step: int, total_steps: int) -> dict[str, float]:
        """Per-term weights at a given step."""
        scale = lambda_scale(step, total_steps, self.warmup_fraction)
        return {term: getattr(self, f"lambda_{term}") * scale for term in TERMS}


@dataclass(frozen=True)
class LossBreakdown:
    """Raw per-term values plus the weighted total for one batch.

    Term fields are unweighted; ``total`` folds in the annealed weights, so
    total == core + sum(lambda_k(step) * term_k).  ``skipped`` lists
    (term, count) pairs for sequences whose term was undefined and
    contributed zero.
    """

    core: float
    jump: float
    vol: float
    gvol: float
    kurt: float
    drift: float
    pinball: float
    spectral: float
    total: float
    skipped: tuple[tuple[str, int], ...] = ()


def format_loss_row(step: int, breakdown: LossBreakdown) -> str:
    """One CSV row matching LOSS_CSV_HEADER; repr() keeps floats lossless."""
    values = (repr(float(getattr(breakdown, column))) for column in _LOG_COLUMNS)
    return ",".join([str(int(step)), *values])


def _prefix_lens(mask: np.ndarray) -> np.ndarray:
    """Valid length of each row of a (B, L) mask of contiguous prefixes."""
    lens = mask.sum(axis=1)
    if not np.array_equal(mask, np.arange(mask.shape[1]) < lens[:, None]):
        raise DataError("mask must be a contiguous prefix of valid positions")
    return lens


def _smooth_l1(d: np.ndarray) -> np.ndarray:
    a = np.abs(d)
    return np.where(a < SMOOTH_L1_DELTA, 0.5 * d * d, a - 0.5 * SMOOTH_L1_DELTA)


def _smooth_l1_grad(d: np.ndarray) -> np.ndarray:
    return np.where(np.abs(d) < SMOOTH_L1_DELTA, d, np.sign(d))


def _guarded_std(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deviations from the mean and floored population stds along the last axis.

    The variance is numpy's ``var`` spelled out (the squared deviations
    from the same mean, summed, over n), so the deviations are formed
    once for it and for the callers' gradients, with the same bits.
    """
    dev = x - x.sum(axis=-1, keepdims=True) / x.shape[-1]
    return dev, np.sqrt(np.square(dev).sum(axis=-1) / x.shape[-1] + VAR_FLOOR)


def _masked_mse_vg(y: np.ndarray, y_hat: np.ndarray, mask) -> tuple[float, np.ndarray]:
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise DataError("mask selects no positions")
    d = np.where(mask, y_hat - y, 0.0)
    value = float(np.sum(d * d) / count)
    return value, 2.0 * d / count


# ---------------------------------------------------------------------------
# batched kernels: p (prediction) and t (truth, or its truth_stats) are (G, n)
# rows sharing one valid length; each returns per-row values (G,) and
# gradients wrt p (G, n).  A term that can be undefined for a row (too short,
# zero variance or spectrum) also returns a per-row "defined" mask; undefined
# rows come back as zeros in value and gradient, and total_loss counts them.


def _undefined(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.zeros(len(p)), np.zeros_like(p), np.zeros(len(p), dtype=bool)


def truth_stats(t, window: int = DEFAULT_VOL_WINDOW, stride: int = DEFAULT_VOL_STRIDE):
    """Per row of (G, n) rows t: diff, drift, floored stds (sig; win_sig per vol
    window, none past it), kurt and kurt_ok, mag (FFT magnitudes over their
    peak) and mag_ok.  Each is the row's own sums and FFT, so its bits do not
    depend on the block.  A dict of them passes through."""
    if isinstance(t, dict):
        return t
    win_sig = (_guarded_std(sliding_window_view(t, window, axis=1)[:, ::stride])[1]
               if window <= t.shape[1] else np.zeros((len(t), 0)))
    kurt, _, kurt_ok = _kurtosis(t, with_grad=False)
    _, mag, peak, mag_ok = _spectrum(t)
    return {"diff": np.diff(t, axis=1), "drift": t[:, -1] - t[:, 0],
            "sig": _guarded_std(t)[1], "win_sig": win_sig, "kurt": kurt,
            "kurt_ok": kurt_ok, "mag": mag / peak[:, None], "mag_ok": mag_ok}


def truth_table(x0: np.ndarray, mask, config: LossConfig) -> dict:
    """{n: (row indices, truth_stats)} of the (S, L) padded rows of each valid length n."""
    lens = _prefix_lens(np.asarray(mask, dtype=bool))
    groups = {n: np.flatnonzero(lens == n) for n in set(lens.tolist()) - {0}}
    return {n: (rows, truth_stats(x0[rows, :n], config.vol_window, config.vol_stride))
            for n, rows in groups.items()}


def _jump(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    if p.shape[1] < 2:
        return _undefined(p)
    e = np.diff(p, axis=1) - truth_stats(t)["diff"]
    s = np.sign(e) / e.shape[1]
    g = np.zeros_like(p)
    g[:, 1:] += s
    g[:, :-1] -= s
    return np.abs(e).mean(axis=1), g


def _vol_clustering(
    p: np.ndarray, t: np.ndarray, window: int, stride: int
) -> tuple[np.ndarray, ...]:
    if window > p.shape[1]:
        return _undefined(p)
    wins_p = sliding_window_view(p, window, axis=1)[:, ::stride]  # (G, W, window)
    dev_p, sig_p = _guarded_std(wins_p)
    d = sig_p - truth_stats(t, window, stride)["win_sig"]
    count = d.shape[1]
    gd = _smooth_l1_grad(d) / count
    contrib = gd[..., None] * dev_p / (window * sig_p)[..., None]
    # offset j of window i lands on i*stride + j; descending offsets add each
    # position's windows in ascending order
    g = np.zeros_like(p)
    span = (count - 1) * stride + 1
    for j in reversed(range(window)):
        g[:, j : j + span : stride] += contrib[:, :, j]
    return _smooth_l1(d).mean(axis=1), g


def _global_vol(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    n = p.shape[1]
    if n < 2:
        return _undefined(p)
    dev, sig_p = _guarded_std(p)
    d = sig_p - truth_stats(t)["sig"]
    g = np.sign(d)[:, None] * dev / (n * sig_p)[:, None]
    return np.abs(d), g


def _kurtosis(x: np.ndarray, with_grad: bool = True):
    """Per-row excess kurtosis, its gradient (None without with_grad), defined mask."""
    n = x.shape[1]
    c = x - x.sum(axis=1, keepdims=True) / n
    m2 = (c * c).sum(axis=1, keepdims=True) / n
    defined = ~(m2[:, 0] < KURT_MIN_VAR)
    m2 = np.where(defined[:, None], m2, 1.0)
    m4 = (c**4).sum(axis=1, keepdims=True) / n
    value = np.where(defined, m4[:, 0] / m2[:, 0] ** 2 - 3.0, 0.0)
    if not with_grad:
        return value, None, defined
    c3 = c**3
    m3 = c3.sum(axis=1, keepdims=True) / n
    dm4 = 4.0 / n * (c3 - m3)
    dm2 = 2.0 / n * c
    g = dm4 / m2**2 - 2.0 * m4 * dm2 / m2**3
    return value, np.where(defined[:, None], g, 0.0), defined


def _tail(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    k_pred, gk, ok_pred = _kurtosis(p)
    truth = truth_stats(t)
    defined = ok_pred & truth["kurt_ok"]
    e = np.where(defined, k_pred - truth["kurt"], 0.0)
    return e * e, 2.0 * e[:, None] * gk, defined


def _drift(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = (p[:, -1] - p[:, 0]) - truth_stats(t)["drift"]
    g = np.zeros_like(p)
    g[:, -1] += 2.0 * e
    g[:, 0] -= 2.0 * e
    return e * e, g


def _pinball(y: np.ndarray, y_hat: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    d = y - y_hat
    over = d >= 0.0
    per = np.where(over, q * d, (1.0 - q) * (-d))
    g = np.where(over, -q, 1.0 - q) / d.shape[1]
    return per.mean(axis=1), g


def _pinball_pair(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v_lo, g_lo = _pinball(t, p, PINBALL_Q_LOW)
    v_hi, g_hi = _pinball(t, p, PINBALL_Q_HIGH)
    return 0.5 * (v_lo + v_hi), 0.5 * (g_lo + g_hi)


def _spectrum(x: np.ndarray):
    """FFT, magnitudes, per-row peak (1 where undefined) and defined mask."""
    ft = np.fft.fft(x, axis=1)
    mag = np.abs(ft)
    peak = mag.max(axis=1)
    defined = ~(peak <= 0.0)
    return ft, mag, np.where(defined, peak, 1.0), defined


def _spectral(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = p.shape[1]
    if n < 2:
        return _undefined(p)
    ft_p, mag_p, peak_p, ok_p = _spectrum(p)
    truth = truth_stats(t)
    defined = ok_p & truth["mag_ok"]
    d = mag_p / peak_p[:, None] - truth["mag"]
    value = np.where(defined, _smooth_l1(d).mean(axis=1), 0.0)

    g_norm = _smooth_l1_grad(d) / n
    g_mag = g_norm / peak_p[:, None]
    rows = np.arange(p.shape[0])
    g_mag[rows, mag_p.argmax(axis=1)] -= np.sum(g_norm * mag_p, axis=1) / peak_p**2
    # d|X_k|/dx_m = Re(conj(X_k)/|X_k| * exp(-2pi i k m / n)), so the chain
    # collapses to one forward transform; bins with zero magnitude get a
    # zero subgradient
    safe = mag_p > peak_p[:, None] * 1e-15
    ratio = np.where(safe, g_mag * np.conj(ft_p) / np.where(safe, mag_p, 1.0), 0.0)
    g = np.real(np.fft.fft(ratio, axis=1))
    return value, np.where(defined[:, None], g, 0.0), defined


# ---------------------------------------------------------------------------
# public one-sequence statistics


def kurtosis(x) -> float:
    """Excess kurtosis E[z^4] - 3 with population moments."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError("expected a 1-D sequence")
    values, _, defined = _kurtosis(arr[None], with_grad=False)
    if not defined[0]:
        raise NumericError("kurtosis undefined for a zero-variance sequence")
    return float(values[0])


def pinball_loss(y, y_hat, q: float) -> float:
    """Quantile loss: q*(y-yhat) when y >= yhat, else (1-q)*(yhat-y)."""
    if not 0.0 < q < 1.0:
        raise ConfigError(f"quantile must be in (0, 1), got {q}")
    ya = np.asarray(y, dtype=np.float64)
    yh = np.asarray(y_hat, dtype=np.float64)
    if ya.shape != yh.shape:
        raise DataError(f"y and y_hat shapes differ: {ya.shape} vs {yh.shape}")
    values, _ = _pinball(ya.reshape(1, -1), yh.reshape(1, -1), q)
    return float(values[0])


# ---------------------------------------------------------------------------
# composite


def total_loss(
    pred,
    target,
    x0_pred,
    x0_true,
    mask,
    step: int,
    total_steps: int,
    config: LossConfig = LossConfig(),
    with_grads: bool = False,
    truth: tuple[dict, np.ndarray] | None = None,
):
    """Evaluate the full training loss on one batch.

    pred/target are (B, L) arrays in the training parameterization; x0_pred
    and x0_true are the matching data-space reconstructions the auxiliary
    terms are measured on.  mask is a (B, L) boolean array whose rows are
    contiguous validity prefixes.  config supplies the annealed weights and
    the vol-clustering window and stride.  truth, when given, is (table,
    idx): a ``truth_table`` at config and the indices of x0_true's rows in it.

    Returns a LossBreakdown, or with with_grads=True a tuple
    (breakdown, d_total/d_pred, d_total/d_x0_pred); the two gradients are
    disjoint halves of the chain, so callers combine them through the
    Jacobian of their x0 reconstruction.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    x0_pred = np.asarray(x0_pred, dtype=np.float64)
    x0_true = np.asarray(x0_true, dtype=np.float64)
    mask_arr = np.asarray(mask, dtype=bool)
    if pred.ndim != 2:
        raise DataError("expected (batch, length) arrays")
    for name, arr in (("target", target), ("x0_pred", x0_pred),
                      ("x0_true", x0_true), ("mask", mask_arr)):
        if arr.shape != pred.shape:
            raise DataError(f"{name} shape {arr.shape} != pred shape {pred.shape}")

    lam = config.annealed(step, total_steps)
    core, g_pred = _masked_mse_vg(target, pred, mask_arr)
    lens = _prefix_lens(mask_arr)
    if not lens.all():
        raise DataError(f"batch row {int(np.argmin(lens))} has an empty mask")

    batch = pred.shape[0]
    per_row = np.zeros((len(TERMS), batch))
    skipped: Counter[str] = Counter()
    g_x0 = np.zeros_like(x0_pred)

    # the distinct lengths in increasing order (np.unique would import numpy.ma)
    for n in np.flatnonzero(np.bincount(lens)):
        rows = np.flatnonzero(lens == n)
        # slice, never multiply by the mask: padding may hold NaN
        p = x0_pred[rows, :n]
        t = x0_true[rows, :n]
        if truth is None:
            ts = truth_stats(t, config.vol_window, config.vol_stride)
        else:  # a table group's rows ascend, so a row's place is its rank
            members, stats = truth[0][n]
            at = np.searchsorted(members, truth[1][rows])
            ts = {name: values[at] for name, values in stats.items()}
        evaluated = (
            _jump(p, ts), _vol_clustering(p, ts, config.vol_window, config.vol_stride),
            _global_vol(p, ts), _tail(p, ts), _drift(p, ts), _pinball_pair(p, t),
            _spectral(p, ts),
        )
        g = np.zeros_like(p)
        for k, (term, (values, grad, *defined)) in enumerate(zip(TERMS, evaluated)):
            if defined and not defined[0].all():
                skipped[term] += int(np.count_nonzero(~defined[0]))
            per_row[k, rows] = values
            g += (lam[term] / batch) * grad
        g_x0[rows, :n] = g

    for term, count in sorted(skipped.items()):
        warnings.warn(f"{term} term undefined for {count} sequence(s); contributed 0",
                      RuntimeWarning, stacklevel=2)

    means = dict(zip(TERMS, (per_row.sum(axis=1) / batch).tolist()))
    total = core + sum(lam[term] * means[term] for term in TERMS)
    breakdown = LossBreakdown(
        core=core, total=total, skipped=tuple(sorted(skipped.items())), **means
    )
    if with_grads:
        return breakdown, g_pred, g_x0
    return breakdown
