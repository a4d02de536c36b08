"""Risk-neutral GBM Monte Carlo valuation (the market maker's model).

Paths use the exact log-Euler discretization on the trading-day grid,

    S_{t+1} = S_t * exp((r - sigma^2/2)/252 + sigma * sqrt(1/252) * Z),

so there is no discretization bias for GBM.  Simulation is chunked with
one RNG substream per chunk (seed sequence [seed, chunk]); the estimator
reduces per-path values with compensated summation, making the result
independent of chunk evaluation order.  ``p_price`` applies the same
estimator to externally generated paths so that P and Q valuations share
every arithmetic step.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .market_paths import TRADING_DAYS_PER_YEAR
from .payoffs import (
    Accumulator,
    Asian,
    ContractSpec,
    European,
    Lookback,
    Snowball,
    linear_calendar_fraction,
)

# Fixed chunk size so the path set is identical whether it is
# materialized in one array or streamed chunk by chunk.
CHUNK_PATHS = 16_384

DEFAULT_GAME_PATHS = 20_000


@dataclass(frozen=True)
class GbmParams:
    """One valuation's simulation settings."""

    s0: float
    r: float
    sigma: float
    n_days: int
    n_paths: int
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s0) and self.s0 > 0.0):
            raise ConfigError("s0 must be finite and positive")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ConfigError("sigma must be finite and non-negative")
        if self.n_days < 1:
            raise ConfigError("n_days must be at least 1")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be at least 1")
        if not math.isfinite(self.r):
            raise ConfigError("r must be finite")


@dataclass(frozen=True)
class PriceEstimate:
    value: float
    std_error: float
    n_paths: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise DataError("std_error must be non-negative")


def _simulate_chunk(params: GbmParams, chunk: int, n_rows: int) -> np.ndarray:
    rng = np.random.default_rng([params.seed, chunk])
    z = rng.standard_normal((n_rows, params.n_days))
    dt = 1.0 / TRADING_DAYS_PER_YEAR
    # s0 * exp(cumsum(drift + vol * z)), in place on the draw; keep the
    # operation order, since tests compare the paths bit for bit
    z *= params.sigma * math.sqrt(dt)
    z += (params.r - 0.5 * params.sigma**2) * dt
    np.cumsum(z, axis=1, out=z)
    np.exp(z, out=z)
    z *= params.s0
    return z


def _chunk_sizes(n_paths: int):
    full, rem = divmod(n_paths, CHUNK_PATHS)
    sizes = [CHUNK_PATHS] * full
    if rem:
        sizes.append(rem)
    return sizes


def simulate_gbm(params: GbmParams) -> np.ndarray:
    """All paths as an (n_paths, n_days) close matrix (day 1..n, no s0)."""
    chunks = [
        _simulate_chunk(params, i, n) for i, n in enumerate(_chunk_sizes(params.n_paths))
    ]
    return np.vstack(chunks)


def discounted_values(
    contract: ContractSpec,
    paths: np.ndarray,
    s0: float,
    r: float,
    t_calendar: float | None = None,
) -> np.ndarray:
    """Discounted contract value per path, vectorized across paths.

    Matches the per-path cash-flow trace in ``payoffs`` (tested against
    it); snowballs need t_calendar for their coupon accrual clock.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.size == 0:
        raise DataError("paths must be a non-empty (n_paths, n_days) matrix")
    n, length = paths.shape
    t_idx = np.arange(1, length + 1, dtype=float)
    disc = np.exp(-r * t_idx / TRADING_DAYS_PER_YEAR)

    if isinstance(contract, European):
        payoff = np.maximum(paths[:, -1] - contract.strike_ratio * s0, 0.0)
        return payoff * disc[-1]
    if isinstance(contract, Lookback):
        payoff = np.maximum(paths.max(axis=1) - contract.strike_ratio * s0, 0.0)
        return payoff * disc[-1]
    if isinstance(contract, Asian):
        payoff = np.maximum(paths.mean(axis=1) - contract.strike_ratio * s0, 0.0)
        return payoff * disc[-1]
    if isinstance(contract, Accumulator):
        k_d = contract.discount * s0
        cf = np.where(paths < k_d, 2.0, 1.0) * contract.daily_units * (paths - k_d)
        hit = paths >= contract.ko_ratio * s0
        has_ko = hit.any(axis=1)
        last = np.where(has_ko, hit.argmax(axis=1), length - 1)
        alive = np.arange(length)[None, :] <= last[:, None]
        return np.sum(cf * alive * disc[None, :], axis=1)
    if isinstance(contract, Snowball):
        if t_calendar is None:
            raise ConfigError("snowball valuation needs t_calendar")
        obs = (np.arange(1, length + 1) % contract.ko_obs_stride == 0) | (
            np.arange(1, length + 1) == length
        )
        ko_hit = (paths >= contract.ko_ratio * s0) & obs[None, :]
        has_ko = ko_hit.any(axis=1)
        pay_day = np.where(has_ko, ko_hit.argmax(axis=1) + 1, length)
        cal = linear_calendar_fraction(length, t_calendar)
        coupon = contract.notional * contract.coupon_pa * cal[pay_day - 1]
        ki_any = (paths < contract.ki_ratio * s0).any(axis=1)
        downside = contract.notional * np.maximum(
            np.minimum(paths[:, -1] / s0 - 1.0, 0.0), -1.0
        )
        amount = np.where(has_ko, coupon, np.where(ki_any, downside, coupon))
        # the no-KO/no-KI branch reuses `coupon`, which equals the full
        # horizon accrual there because pay_day == length
        return amount * np.exp(-r * pay_day / TRADING_DAYS_PER_YEAR)
    raise ConfigError(f"unknown contract {contract!r}")


def _estimate(values: np.ndarray) -> PriceEstimate:
    """Mean and standard error with compensated (exact) summation."""
    n = len(values)
    mean = math.fsum(values.tolist()) / n
    if n > 1:
        # each square is correctly rounded and fsum is exact, so the
        # result equals a per-element Python loop bit for bit
        var = math.fsum(((values - mean) ** 2).tolist()) / (n - 1)
        std_error = math.sqrt(var / n)
    else:
        std_error = 0.0
    return PriceEstimate(value=mean, std_error=std_error, n_paths=n)


def price(
    contract: ContractSpec,
    params: GbmParams,
    t_calendar: float | None = None,
    threads: int = 1,
) -> PriceEstimate:
    """Q-side fair value: mean discounted payoff over simulated GBM paths."""
    sizes = _chunk_sizes(params.n_paths)

    def run(args):
        chunk, rows = args
        paths = _simulate_chunk(params, chunk, rows)
        return discounted_values(contract, paths, params.s0, params.r, t_calendar)

    jobs = list(enumerate(sizes))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, jobs))
    else:
        parts = [run(j) for j in jobs]
    return _estimate(np.concatenate(parts))


def p_price(
    contract: ContractSpec,
    paths: np.ndarray,
    s0: float,
    r: float,
    t_calendar: float | None = None,
    discount: bool = True,
) -> PriceEstimate:
    """P-side value: same estimator over externally generated paths.

    Discounting uses the same matched rate as Q by default so that price
    gaps reflect the path measure only; ``discount=False`` averages the
    raw payoffs instead.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.size == 0:
        raise DataError("need a non-empty path set")
    values = discounted_values(contract, paths, s0, 0.0 if not discount else r, t_calendar)
    return _estimate(values)
