"""Risk-neutral GBM Monte Carlo valuation (the market maker's model).

Paths use the exact log-Euler discretization on the trading-day grid,

    S_{t+1} = S_t * exp((r - sigma^2/2)/252 + sigma * sqrt(1/252) * Z),

so there is no discretization bias for GBM.  Simulation is chunked with
one RNG substream per chunk (seed sequence [seed, chunk]); the estimator
reduces per-path values with compensated summation, making the result
independent of chunk evaluation order.  ``price_all`` values several
contracts on each simulated chunk, so every product of a game slice is
priced from one path set (common random numbers); ``price`` is
``price_all`` on one contract.  ``p_price`` applies the same
estimator to externally generated paths, so P and Q valuations share
every arithmetic step; the game's realized leg is ``p_price`` on one
path, whose estimate is that path's discounted value exactly.  This
module is the game's one discounting path.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .market_paths import TRADING_DAYS_PER_YEAR
from .payoffs import ContractSpec

# Fixed chunk size so the path set is identical whether it is
# materialized in one array or streamed chunk by chunk.
CHUNK_PATHS = 16_384


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
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise DataError(
                f"price estimate must be finite, got {self.value} +/- {self.std_error}"
            )
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
    """Discounted contract value per path, from the contract's kernel.

    Each flow is discounted continuously on the trading-day clock.
    Snowballs need t_calendar: their coupon accrues on a calendar clock
    linear in the day index.  The kernel entry checks paths, s0 and the
    calendar; a non-finite rate is a DataError here.
    """
    if not math.isfinite(r):
        raise DataError(f"rate must be finite, got {r}")
    flows = contract.cashflows(paths, s0, t_calendar)
    disc = np.exp(-r * flows.days / TRADING_DAYS_PER_YEAR)
    return np.sum(flows.amounts * disc, axis=1)


def _estimate(values: np.ndarray) -> PriceEstimate:
    """Mean and standard error with compensated (exact) summation."""
    n = len(values)
    mean = math.fsum(values.tolist()) / n
    if n > 1:
        # numpy squares each deviation as one correctly rounded product and
        # fsum is exact, so the result equals a per-element loop of fsum over
        # d * d bit for bit (not over Python's d ** 2, whose C library pow
        # can be 1 ULP off)
        var = math.fsum(((values - mean) ** 2).tolist()) / (n - 1)
        std_error = math.sqrt(var / n)
    else:
        std_error = 0.0
    return PriceEstimate(value=mean, std_error=std_error, n_paths=n)


def price_all(
    contracts,
    params: GbmParams,
    t_calendar: float | None = None,
    threads: int = 1,
) -> tuple[PriceEstimate, ...]:
    """Q-side fair values of several contracts from one GBM simulation.

    Each chunk of paths is simulated once, made read-only and valued for
    every contract; only the per-path values outlive the chunk, so the
    peak holds one chunk per worker plus len(contracts) x n_paths floats.
    Each estimate equals pricing its contract alone, bit for bit.
    """
    contracts = tuple(contracts)

    def run(args):
        chunk, rows = args
        paths = _simulate_chunk(params, chunk, rows)
        paths.setflags(write=False)
        return [discounted_values(c, paths, params.s0, params.r, t_calendar)
                for c in contracts]

    jobs = list(enumerate(_chunk_sizes(params.n_paths)))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, jobs))
    else:
        parts = [run(j) for j in jobs]
    return tuple(_estimate(np.concatenate(values)) for values in zip(*parts))


def price(
    contract: ContractSpec,
    params: GbmParams,
    t_calendar: float | None = None,
    threads: int = 1,
) -> PriceEstimate:
    """Q-side fair value: mean discounted payoff over simulated GBM paths."""
    return price_all((contract,), params, t_calendar, threads)[0]


def p_price(
    contract: ContractSpec,
    paths: np.ndarray,
    s0: float,
    r: float,
    t_calendar: float | None = None,
) -> PriceEstimate:
    """P-side value: same estimator over externally generated paths.

    The game discounts P at Q's matched rate, so price gaps reflect the
    path measure only, and values the realized leg as one path (r = 0
    leaves the payoffs undiscounted).
    """
    return _estimate(discounted_values(contract, paths, s0, r, t_calendar))
