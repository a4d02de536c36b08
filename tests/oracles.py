"""Independent closed-form oracles and reference loops used only by the test suite."""

import math

import numpy as np
from scipy.stats import norm

from pqlab.payoffs import Accumulator, Asian, CashFlowSchedule, European, Lookback, Snowball


def black_scholes_call(s0, k, r, sigma, t):
    """Standard Black-Scholes European call value."""
    if sigma <= 0.0:
        return max(s0 - k * math.exp(-r * t), 0.0)
    d1 = (math.log(s0 / k) + (r + 0.5 * sigma**2) * t) / (sigma * math.sqrt(t))
    d2 = d1 - sigma * math.sqrt(t)
    return s0 * norm.cdf(d1) - k * math.exp(-r * t) * norm.cdf(d2)


def estimate_reference(values):
    """Mean and standard error as a per-element Python loop over the values.

    Reference for ``q_pricer._estimate``: returns (mean, std_error).
    """
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        return mean, math.sqrt(var / n)
    return mean, 0.0


def simulate_gbm_reference(params, chunk_paths):
    """Out-of-place GBM chunks, one RNG substream [seed, chunk] per chunk.

    Reference for ``q_pricer.simulate_gbm``: each chunk is
    s0 * exp(cumsum(drift + vol * z)) over its own standard normal draw.
    """
    chunks = []
    done = 0
    chunk = 0
    while done < params.n_paths:
        rows = min(chunk_paths, params.n_paths - done)
        rng = np.random.default_rng([params.seed, chunk])
        z = rng.standard_normal((rows, params.n_days))
        dt = 1.0 / 252.0
        increments = (params.r - 0.5 * params.sigma**2) * dt + params.sigma * math.sqrt(
            dt
        ) * z
        chunks.append(params.s0 * np.exp(np.cumsum(increments, axis=1)))
        done += rows
        chunk += 1
    return np.vstack(chunks)


# ---------------------------------------------------------------------------
# per-path contract traces: the oracle for the vectorised kernels in
# ``pqlab.payoffs``.  A path is the 1-d vector of closes after inception.


def _check_path(path):
    path = np.asarray(path, dtype=float)
    if path.ndim != 1 or path.size == 0:
        raise ValueError("path must be a non-empty 1-d close vector")
    return path


def european_payoff(path, s0, strike_ratio=1.0):
    """max(S_T - K, 0) with K = strike_ratio * s0."""
    path = _check_path(path)
    return max(float(path[-1]) - strike_ratio * s0, 0.0)


def lookback_payoff(path, s0, strike_ratio=1.0):
    """max(max_t S_t - K, 0) with K = strike_ratio * s0."""
    path = _check_path(path)
    return max(float(path.max()) - strike_ratio * s0, 0.0)


def asian_payoff(path, s0, strike_ratio=1.0):
    """max(mean_t S_t - K, 0) with K = strike_ratio * s0."""
    path = _check_path(path)
    return max(float(path.mean()) - strike_ratio * s0, 0.0)


def accumulator_cashflows(path, s0, spec):
    """Daily CF_t = q_t * units * (S_t - K_d); the KO day settles, then stops."""
    path = _check_path(path)
    k_d = spec.discount * s0
    ko_level = spec.ko_ratio * s0
    days, amounts = [], []
    termination_day, terminated = len(path), False
    for t, s in enumerate(path, start=1):
        q = 2.0 if s < k_d else 1.0
        days.append(t)
        amounts.append(q * spec.daily_units * (s - k_d))
        if s >= ko_level:
            termination_day, terminated = t, True
            break
    return CashFlowSchedule(
        np.array(days), np.array(amounts), termination_day, terminated
    )


def snowball_payoff(path, s0, spec, cal_frac):
    """One snowball as (amount, termination_day).

    cal_frac[t-1] is the elapsed calendar-year fraction at trading day t,
    so cal_frac[-1] is the contract's full calendar maturity.
    """
    path = _check_path(path)
    n = len(path)
    ko_level = spec.ko_ratio * s0
    ki_level = spec.ki_ratio * s0
    ki_hit = False
    for t, s in enumerate(path, start=1):
        if s < ki_level:
            ki_hit = True
        if (t % spec.ko_obs_stride == 0 or t == n) and s >= ko_level:
            return spec.notional * spec.coupon_pa * float(cal_frac[t - 1]), t
    if ki_hit:
        loss = min(float(path[-1]) / s0 - 1.0, 0.0)
        return spec.notional * max(loss, -1.0), n
    return spec.notional * spec.coupon_pa * float(cal_frac[n - 1]), n


def classify_snowball(path, s0, spec):
    """Outcome tag: 'ko', 'ki_loss', 'ki_par', or 'full_coupon'."""
    path = _check_path(path)
    n = len(path)
    ko_level = spec.ko_ratio * s0
    ki_level = spec.ki_ratio * s0
    ki_hit = False
    for t, s in enumerate(path, start=1):
        if s < ki_level:
            ki_hit = True
        if (t % spec.ko_obs_stride == 0 or t == n) and s >= ko_level:
            return "ko"
    if ki_hit:
        return "ki_loss" if float(path[-1]) < s0 else "ki_par"
    return "full_coupon"


def cashflow_schedule(contract, path, s0, cal_frac=None):
    """The schedule of any contract on one path, by the traces above."""
    path = _check_path(path)
    n = len(path)
    if isinstance(contract, Accumulator):
        return accumulator_cashflows(path, s0, contract)
    if isinstance(contract, Snowball):
        amount, day = snowball_payoff(path, s0, contract, cal_frac)
        return CashFlowSchedule(np.array([day]), np.array([amount]), day, day < n)
    payoff = {European: european_payoff, Lookback: lookback_payoff,
              Asian: asian_payoff}[type(contract)]
    amount = payoff(path, s0, contract.strike_ratio)
    return CashFlowSchedule(np.array([n]), np.array([amount]), n, False)
