"""Independent closed-form oracles and reference loops used only by the test suite."""

import math

import numpy as np
from scipy.stats import norm


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
