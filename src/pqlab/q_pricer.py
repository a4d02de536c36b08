"""Risk-neutral GBM Monte Carlo valuation (the market maker's model).

Paths use the exact log-Euler discretization on the trading-day grid,

    S_k = s0 * exp(sigma * sqrt(1/252) * W_k + (r - sigma^2/2)/252 * k),

with W_k the sum of k standard normals, so there is no discretization
bias for GBM.  Simulation is chunked, and each chunk is one day-major
Brownian block (``_brownian_block``): day d of chunk c draws its normals
from its own stream (seed sequence [seed, c, d]), and each day's row adds
the row before it.  So path i and day d do not depend on how many paths
or days are simulated, and ``_closes`` turns the first n_days rows of one
block into any GBM's closes.  ``book_values`` is the checked valuation
entry: it checks one path set once for a whole book and adds each path's
discounted flows in day order.  The estimator (``_Moments``) streams
exact sums (``_exact_total``, a vectorised superaccumulator) chunk by
chunk, so only those sums outlive a chunk.  ``price_books`` values
several books, each on its own GBM (s0, rate, sigma, days), on one
Brownian block per chunk: every product of every game slice is priced on
the same normals (common random numbers).  ``price_all`` is one book and
``price`` one contract.  ``p_price`` applies the same estimator to
externally generated paths, so P and Q valuations share every arithmetic
step; the game's realized leg is ``p_price`` on one path, whose estimate
is that path's discounted value exactly.  ``price_books`` calls
``book_values`` once per chunk and book, and ``discounted_values`` and
``p_price`` are it on one contract: this module is the game's one
discounting path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .market_paths import TRADING_DAYS_PER_YEAR
from .payoffs import ContractSpec, book_flows, day_sum

# Fixed chunk size so the path set is identical whether it is
# materialized in one array or streamed chunk by chunk.
CHUNK_PATHS = 16_384
# Most Q paths per valuation, 210 times the default 20,000.  Memory does
# not grow with it, since only exact sums outlive a chunk (one Brownian
# block and one closes buffer); it bounds the run time.
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


def _brownian_block(seed: int, chunk: int, out: np.ndarray) -> np.ndarray:
    """Chunk ``chunk``'s Brownian block, day-major, written into ``out``.

    Row d of ``out`` (n_days, rows) receives day d's standard normals, its
    own stream [seed, chunk, d], and then adds row d - 1, so row d holds
    the walk W_{d+1} of every path.  Path i and day d are therefore the
    same for any number of rows or days asked for.
    """
    for day, row in enumerate(out):
        np.random.default_rng([seed, chunk, day]).standard_normal(out=row)
        if day:
            row += out[day - 1]
    return out


def _closes(params: GbmParams, walk: np.ndarray, out: np.ndarray) -> np.ndarray:
    """GBM closes s0 * exp(vol * W_k + drift * k), k = 1..n_days, into ``out``.

    ``walk`` is a Brownian block's first n_days rows and ``out`` has its
    shape (it may be ``walk`` itself).  Keep the operation order: the game
    and ``simulate_gbm`` both form their closes here, and tests compare
    the paths bit for bit.
    """
    dt = 1.0 / TRADING_DAYS_PER_YEAR
    vol = params.sigma * math.sqrt(dt)
    drift = (params.r - 0.5 * params.sigma**2) * dt
    np.multiply(walk, vol, out=out)
    out += drift * np.arange(1, len(out) + 1)[:, None]
    np.exp(out, out=out)
    out *= params.s0
    return out


def _simulate_chunk(params: GbmParams, chunk: int, n_rows: int) -> np.ndarray:
    """One chunk's closes, day-major: an (n_days, n_rows) C-contiguous array."""
    walk = _brownian_block(params.seed, chunk, np.empty((params.n_days, n_rows)))
    return _closes(params, walk, walk)


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


def _exact_total(values: np.ndarray, what: str) -> int:
    """The exact sum of float64 values, as an integer count of 2**-(1073 + 53).

    Neal's superaccumulator (arXiv:1505.05571) in numpy: each part of the
    significands is summed per exponent with ``np.bincount``, exactly in
    float64, and the few non-empty buckets are added as Python ints.  Ints
    add exactly, so totals of several blocks add to the total of all their
    values.  A non-finite value is a DataError naming ``what`` the sum is
    for.
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
    return total


def _rounded(total: int, what: str, n: int) -> float:
    """An ``_exact_total`` rounded once to float64 (int true division, which
    Python rounds correctly); zero is +0.0, and a total beyond float64 is a
    DataError naming ``what`` and the ``n`` terms."""
    try:
        return total / (1 << (_EXP_BIAS + 53))
    except OverflowError:
        raise DataError(
            f"price estimate: {what} overflows float64 (a sum of {n} terms)"
        ) from None


class _Moments:
    """Mean and standard error of values fed a block at a time.

    The sums are exact (``_exact_total``), so the mean does not depend on
    how the values are split.  Squares are taken about a shift c, the
    rounded mean of the first block, and var = (fl(S) - n (m - c)^2) /
    (n - 1), where S is their exact sum; while all values came in one
    block, c is the mean m and var is fl(S) / (n - 1).  Only the exact
    totals outlive a block.
    """

    def __init__(self) -> None:
        self.n = 0
        self.total = 0
        self.squares = 0
        self.shift = 0.0

    def add(self, values: np.ndarray) -> None:
        total = _exact_total(values, "the mean")
        if not self.n:
            self.shift = _rounded(total, "the mean", len(values)) / len(values)
        # numpy squares each deviation as one correctly rounded product and
        # the sum is exact, so the result equals a per-element loop of fsum
        # over d * d bit for bit (not over Python's d ** 2, whose C library
        # pow can be 1 ULP off); a square beyond float64 is inf, which the
        # sum reports as a DataError
        with np.errstate(over="ignore"):
            dev = values - self.shift
            dev *= dev
        self.squares += _exact_total(dev, "the variance")
        self.total += total
        self.n += len(values)

    def estimate(self) -> PriceEstimate:
        n = self.n
        mean = _rounded(self.total, "the mean", n) / n
        std_error = 0.0
        if n > 1:
            offset = mean - self.shift
            var = (_rounded(self.squares, "the variance", n) - n * (offset * offset)) / (n - 1)
            std_error = math.sqrt(max(var, 0.0) / n)
        return PriceEstimate(value=mean, std_error=std_error, n_paths=n)


def _estimate(values: np.ndarray) -> PriceEstimate:
    """Mean and standard error of a value set, fed in ``CHUNK_PATHS`` blocks
    as Q feeds its chunks, so P on Q's own paths equals Q bit for bit."""
    moments = _Moments()
    for start in range(0, len(values), CHUNK_PATHS):
        moments.add(values[start:start + CHUNK_PATHS])
    return moments.estimate()


def price_books(jobs) -> tuple[tuple[PriceEstimate, ...], ...]:
    """Q-side fair values of several books, each on its own GBM, from one
    Brownian block per chunk.

    ``jobs`` are (contracts, GbmParams, t_calendar) triples that share
    n_paths and seed (a mismatch is a ConfigError); their s0, r, sigma and
    n_days may differ.  Per chunk, one block of max(n_days) rows is
    cumulated, and the jobs are valued in turn, each on its first n_days
    rows through one reused closes buffer, made read-only, with one
    ``book_values`` call (a lone job's closes overwrite the block).  So the
    peak holds one block and one closes buffer, and only exact sums
    outlive a chunk.  Returns one estimate per contract, per job, in order;
    each equals ``p_price`` on ``simulate_gbm(params)`` bit for bit.
    """
    jobs = [(tuple(contracts), params, t_calendar) for contracts, params, t_calendar in jobs]
    n_paths, seed = jobs[0][1].n_paths, jobs[0][1].seed
    if any((params.n_paths, params.seed) != (n_paths, seed) for _, params, _ in jobs):
        raise ConfigError("jobs priced on one Brownian block must share n_paths and seed")
    rows = min(n_paths, CHUNK_PATHS)
    l_max = max(params.n_days for _, params, _ in jobs)
    moments = [[_Moments() for _ in contracts] for contracts, _, _ in jobs]
    walk_buf = np.empty(l_max * rows)
    # a lone job's closes overwrite the block, which it alone reads
    buf = walk_buf if len(jobs) == 1 else np.empty(l_max * rows)
    for chunk, n_rows in enumerate(_chunk_sizes(n_paths)):
        walk = _brownian_block(seed, chunk, walk_buf[:l_max * n_rows].reshape(l_max, n_rows))
        for (contracts, params, t_calendar), job_moments in zip(jobs, moments):
            n_days = params.n_days
            closes = _closes(params, walk[:n_days], buf[:n_days * n_rows].reshape(n_days, n_rows))
            closes.setflags(write=False)
            values = book_values(contracts, closes.T, params.s0, params.r, t_calendar)
            for acc, v in zip(job_moments, values):
                acc.add(v)
    return tuple(tuple(acc.estimate() for acc in job) for job in moments)


def price_all(
    contracts,
    params: GbmParams,
    t_calendar: float | None = None,
) -> tuple[PriceEstimate, ...]:
    """Q-side fair values of several contracts from one GBM simulation:
    ``price_books`` on one job.  Each estimate equals pricing its contract
    alone, bit for bit."""
    return price_books([(contracts, params, t_calendar)])[0]


def price(
    contract: ContractSpec,
    params: GbmParams,
    t_calendar: float | None = None,
) -> PriceEstimate:
    """Q-side fair value: mean discounted payoff over simulated GBM paths."""
    return price_all((contract,), params, t_calendar)[0]


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
