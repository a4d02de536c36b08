"""Risk-neutral GBM Monte Carlo valuation (the market maker's model).

Paths use the exact log-Euler discretization on the trading-day grid,

    S_{t+1} = S_t * exp((r - sigma^2/2)/252 + sigma * sqrt(1/252) * Z),

so there is no discretization bias for GBM.  Simulation is chunked with
one RNG substream per chunk (seed sequence [seed, chunk]).  Each chunk
draws its normals path by path, ``(rows, days)``, and sums them into a
day-major ``(days, rows)`` array, one vector add per day: the paths keep
their bits, and the kernels read whole days as rows (see ``payoffs``).
``book_values`` is the checked valuation entry: it checks one path set
once for a whole book and adds each path's discounted flows in day
order.  The estimator reduces per-path values with an exact, correctly
rounded sum (``_exact_sum``, a vectorised superaccumulator with
``math.fsum``'s bits), making the result independent of chunk evaluation
order.  ``price_all`` values several
contracts on each simulated chunk, so every product of a game slice is
priced from one path set (common random numbers); ``price`` is
``price_all`` on one contract.  ``p_price`` applies the same
estimator to externally generated paths, so P and Q valuations share
every arithmetic step; the game's realized leg is ``p_price`` on one
path, whose estimate is that path's discounted value exactly.
``price_all`` calls ``book_values`` once per chunk, and
``discounted_values`` and ``p_price`` are it on one contract: this
module is the game's one discounting path.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .market_paths import TRADING_DAYS_PER_YEAR
from .payoffs import ContractSpec, book_flows, day_sum

# Fixed chunk size so the path set is identical whether it is
# materialized in one array or streamed chunk by chunk.
CHUNK_PATHS = 16_384
# paths per block of normals while a chunk is simulated: at 252 days,
# blocks of 512 rows cost more in per-day adds than they save in memory
_DRAW_ROWS = 4_096
# Most Q paths per valuation: price_all keeps one float64 value per path and
# contract, and concatenates each contract's, so the five products of a
# game slice hold about 2 x 5 x 32 MiB at 2**22 paths (210 times the
# default 20,000), beside one chunk per worker.
MAX_Q_PATHS = 2**22


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
    """One chunk's closes, day-major: an (n_days, n_rows) C-contiguous array.

    The normals are drawn path-major, (rows, days), as one (n_rows, n_days)
    draw would give them, _DRAW_ROWS paths at a time into one reused block,
    so no second chunk-sized array costs its page faults.
    """
    rng = np.random.default_rng([params.seed, chunk])
    dt = 1.0 / TRADING_DAYS_PER_YEAR
    vol = params.sigma * math.sqrt(dt)
    drift = (params.r - 0.5 * params.sigma**2) * dt
    closes = np.empty((params.n_days, n_rows))
    block = np.empty((min(_DRAW_ROWS, n_rows), params.n_days))
    # s0 * exp(cumsum(drift + vol * z)); keep the operation order, since
    # tests compare the paths bit for bit.  The running sum adds one day's
    # column of the block at a time
    for start in range(0, n_rows, _DRAW_ROWS):
        z = block[:n_rows - start]  # the last block may be short
        rng.standard_normal(out=z)
        z *= vol
        z += drift
        out = closes[:, start:start + len(z)]
        out[0] = z[:, 0]
        for day in range(1, params.n_days):
            np.add(out[day - 1], z[:, day], out=out[day])
    np.exp(closes, out=closes)
    closes *= params.s0
    return closes


def _chunk_sizes(n_paths: int):
    full, rem = divmod(n_paths, CHUNK_PATHS)
    sizes = [CHUNK_PATHS] * full
    if rem:
        sizes.append(rem)
    return sizes


def simulate_gbm(params: GbmParams) -> np.ndarray:
    """All paths as an (n_paths, n_days) close matrix (day 1..n, no s0).

    The matrix is the transpose of the day-major chunks side by side, so
    the valuation entry reads it day-major without a copy.
    """
    chunks = [
        _simulate_chunk(params, i, n) for i, n in enumerate(_chunk_sizes(params.n_paths))
    ]
    return np.hstack(chunks).T


def book_values(
    contracts,
    paths: np.ndarray,
    s0: float,
    r: float,
    t_calendar: float | None = None,
) -> list[np.ndarray]:
    """Discounted value per path of every contract in a book, in book order.

    The checked valuation entry: ``payoffs.book_flows`` checks the (N, L)
    paths, s0 and the calendar once for the book and lays the paths out
    day-major once; a non-finite rate is a DataError here.  Each flow is
    discounted continuously on the trading-day clock, and a path's flows
    are added in day order.  Snowballs need t_calendar: their coupon
    accrues on a calendar clock linear in the day index.
    """
    if not math.isfinite(r):
        raise DataError(f"rate must be finite, got {r}")
    values = []
    for days, amounts, _, _ in book_flows(contracts, paths, s0, t_calendar):
        # the kernel's amounts are fresh, so the discount is multiplied in place
        amounts *= np.exp(-r * days / TRADING_DAYS_PER_YEAR)
        values.append(day_sum(amounts.T))
    return values


def discounted_values(
    contract: ContractSpec,
    paths: np.ndarray,
    s0: float,
    r: float,
    t_calendar: float | None = None,
) -> np.ndarray:
    """Discounted value per path of one contract: ``book_values`` on it alone."""
    return book_values((contract,), paths, s0, r, t_calendar)[0]


# frexp gives x = m * 2**e with 0.5 <= |m| < 1 and, for finite float64,
# -1073 <= e <= 1024; m * 2**53 is an integer, split in a high part below
# 2**27 and a low part below 2**26.  A block of at most 2**26 values keeps
# every per-exponent partial sum of either part an integer below 2**53.
_HI_BITS, _LO_BITS = 27, 26
_EXP_BIAS = 1073
_BLOCK = 2**26


def _exact_sum(values: np.ndarray, what: str = "the sum") -> float:
    """The correctly rounded sum of float64 values: math.fsum's bits.

    Neal's superaccumulator (arXiv:1505.05571) in numpy: each part of the
    significands is summed per exponent with ``np.bincount``, exactly in
    float64; the few non-empty buckets are added as Python ints, and int
    true division, which Python rounds correctly, rounds once.  The empty
    and the all-zero sums are +0.0.  A non-finite value or a sum beyond
    float64 is a DataError naming ``what`` the sum is for.
    """
    if not np.isfinite(values).all():
        raise DataError(f"price estimate: {what} has a non-finite term")
    total = 0
    for start in range(0, len(values), _BLOCK):
        m, e = np.frexp(values[start:start + _BLOCK])
        m *= 2.0**_HI_BITS
        hi = np.trunc(m)
        m -= hi
        m *= 2.0**_LO_BITS
        e += _EXP_BIAS
        hi_sums = np.bincount(e, weights=hi)
        lo_sums = np.bincount(e, weights=m)
        live = np.flatnonzero((hi_sums != 0.0) | (lo_sums != 0.0))
        for k, h, lo in zip(live.tolist(), hi_sums[live].tolist(), lo_sums[live].tolist()):
            total += ((int(h) << _LO_BITS) + int(lo)) << k
    try:
        return total / (1 << (_EXP_BIAS + 53))
    except OverflowError:
        raise DataError(
            f"price estimate: {what} overflows float64 (a sum of {len(values)} terms)"
        ) from None


def _estimate(values: np.ndarray) -> PriceEstimate:
    """Mean and standard error from exact sums of the values and deviations."""
    n = len(values)
    mean = _exact_sum(values, "the mean") / n
    if n > 1:
        # numpy squares each deviation as one correctly rounded product and
        # the sum is exact, so the result equals a per-element loop of fsum
        # over d * d bit for bit (not over Python's d ** 2, whose C library
        # pow can be 1 ULP off); a square beyond float64 is inf, which the
        # sum reports as a DataError
        with np.errstate(over="ignore"):
            dev = values - mean
            dev *= dev
        var = _exact_sum(dev, "the variance") / (n - 1)
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
    every contract by one ``book_values`` call, which checks it once; only
    the per-path values outlive the chunk, so the peak holds one chunk per
    worker plus len(contracts) x n_paths floats.  Each estimate equals
    pricing its contract alone, bit for bit.
    """
    contracts = tuple(contracts)

    def run(args):
        chunk, rows = args
        closes = _simulate_chunk(params, chunk, rows)
        closes.setflags(write=False)
        return book_values(contracts, closes.T, params.s0, params.r, t_calendar)

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
