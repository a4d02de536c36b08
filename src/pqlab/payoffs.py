"""The five contracts, each valued by one vectorised cash-flow kernel.

A contract's ``_flows`` is the only place its rules live.  It reads the
closes on the trading days after inception day-major, as an ``(L, N)``
C-contiguous array whose row d-1 holds day d of every path (the inception
close ``s0`` is passed apart), so a reduction over days is a short run of
whole-row vector ops; its temporaries are day-major too.  ``book_flows``
is the checked entry: it checks one ``(N, L)`` path set, s0 and the
calendar once for a whole book and lays the closes out day-major once
(``cashflows`` is one contract).  Sums over days add in day order
(``day_sum``), so a path's value does not depend on the other paths of
its set.  ``q_pricer.book_values`` discounts a path set's flows, for Q,
for P and for the realized leg the game settles; ``contract_cashflows``
reads one ``(1, n)`` row back as a dated ``CashFlowSchedule``, the
one-path view the hand-traced checks compare.  Each
class also carries its quote mode, default greediness levels, quote
notional and ``from_contracts`` builder for the ``[contracts]`` section;
``CONTRACT_TYPES`` is the product table, keyed by lower-case class name.

Barriers are read at daily closes: knock-out at S_t >= barrier (the
accumulator's KO-day purchase settles; the snowball coupon accrues to the
KO day), snowball knock-in at S_t < barrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Union

import numpy as np

from .errors import ConfigError, DataError

RELATIVE_LEVELS = (0.0, 0.10, 0.20, 0.30, 0.40)
ABSOLUTE_LEVELS = (0.0, 0.005, 0.01, 0.015, 0.02)


class PathFlows(NamedTuple):
    """Column k of ``amounts`` (N, K) pays on 1-based day ``days[:, k]``.

    ``amounts`` is the transpose of a day-major (K, N) array, so
    ``amounts.T`` holds one flow date per row.
    """

    days: np.ndarray  # int, broadcasts against amounts: (1, K) or (N, K)
    amounts: np.ndarray  # fresh (the caller may scale it in place); 0 where a path pays nothing
    stop_day: np.ndarray  # (N,) last live day
    terminated_early: np.ndarray  # (N,) bool


def day_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the rows of a day-major (K, N) array, added in day order.

    numpy's own reduction over the rows adds in that order only for N > 1
    (one path gets its pairwise sum), so the rows are added one by one:
    a path's sum is the same in a set of any size.
    """
    total = values[0].copy()
    for row in values[1:]:
        total += row
    return total


def _first_hits(hit: np.ndarray) -> np.ndarray:
    """Per path, the number of (K, N) observation rows before its first hit.

    K where a path never hits.  ``hit`` becomes its running OR in place, one
    ``logical_or`` per row: row k then reads "hit at or before row k".
    """
    for k in range(1, len(hit)):
        np.logical_or(hit[k - 1], hit[k], out=hit[k])
    return len(hit) - np.count_nonzero(hit, axis=0)


def _day_major(paths) -> np.ndarray:
    """A non-empty, finite (N, L) path set as its (L, N) C-contiguous closes.

    The one finiteness check of a path set.  The layout is a view where
    ``paths`` is the transpose of a C-contiguous array, a copy otherwise.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.size == 0:
        raise DataError("paths must be a non-empty (n_paths, n_days) matrix")
    if not np.isfinite(paths).all():
        raise DataError("paths must be finite")
    return np.ascontiguousarray(paths.T)


def book_flows(contracts, paths, s0: float, calendar=None):
    """Cash flows of every contract in a book on one (N, L) close matrix.

    The checked entry of the kernels.  The closes, s0 and, where a contract
    of the book needs it, ``calendar`` (the per-day calendar-year fraction
    or the maturity t_calendar, a clock linear in the day index) are
    checked once for the whole book, and the closes are laid out day-major
    once; bad input is a DataError.  Returns an iterator of one
    ``PathFlows`` per contract, in book order, each computed when it is
    read, so one contract's flows are alive at a time.
    """
    contracts = tuple(contracts)
    closes = _day_major(paths)
    if not (math.isfinite(s0) and s0 > 0.0):
        raise DataError(f"s0 must be finite and positive, got {s0}")
    needs = [c for c in contracts if c.needs_calendar]
    if needs:
        if calendar is None:
            raise DataError(f"{type(needs[0]).__name__} valuation needs t_calendar")
        if np.ndim(calendar) == 0:
            calendar = linear_calendar_fraction(len(closes), calendar)
        calendar = np.asarray(calendar, dtype=float)
        if calendar.shape != closes.shape[:1] or not np.isfinite(calendar).all():
            raise DataError("cal_frac must be finite and align with the path")
    return (c._flows(closes, s0, calendar) for c in contracts)


def linear_calendar_fraction(n_days: int, t_calendar: float) -> np.ndarray:
    """Calendar-year fraction per trading day, linear in the day index.

    Used when no explicit calendar is available (simulated paths); the
    final entry equals the contract's calendar maturity exactly.
    """
    if n_days < 1:
        raise DataError("need at least one day")
    if not math.isfinite(t_calendar):
        raise DataError(f"t_calendar must be finite, got {t_calendar}")
    return np.arange(1, n_days + 1, dtype=float) / n_days * t_calendar


class _Contract:
    """The checked kernel entry and the quoting defaults."""

    quote_mode: ClassVar[str] = "relative"
    default_levels: ClassVar[tuple[float, ...]] = RELATIVE_LEVELS
    needs_calendar: ClassVar[bool] = False
    quote_notional = 1.0

    def cashflows(self, paths, s0: float, calendar=None) -> PathFlows:
        """Cash flows on every row of an (N, L) close matrix: ``book_flows``
        on this contract alone."""
        return next(book_flows((self,), paths, s0, calendar))


@dataclass(frozen=True)
class _TerminalCall(_Contract):
    """Call on one statistic of the path, K = strike_ratio * s0, paid on day L."""

    strike_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.strike_ratio) or self.strike_ratio <= 0.0:
            raise ConfigError("strike_ratio must be finite and positive")

    @classmethod
    def from_contracts(cls, section):
        return cls(strike_ratio=section.strike_ratio)

    def _flows(self, closes, s0, calendar) -> PathFlows:
        length, n = closes.shape
        payoff = np.maximum(self._underlying(closes) - self.strike_ratio * s0, 0.0)
        return PathFlows(np.array([[length]]), payoff[:, None],
                         np.full(n, length), np.zeros(n, dtype=bool))


@dataclass(frozen=True)
class European(_TerminalCall):
    """Vanilla call on the terminal close."""

    _underlying = staticmethod(lambda closes: closes[-1])


@dataclass(frozen=True)
class Lookback(_TerminalCall):
    """Fixed-strike call on the path maximum."""

    _underlying = staticmethod(lambda closes: closes.max(axis=0))


@dataclass(frozen=True)
class Asian(_TerminalCall):
    """Call on the arithmetic average close."""

    _underlying = staticmethod(lambda closes: day_sum(closes) / len(closes))


@dataclass(frozen=True)
class Accumulator(_Contract):
    """Daily purchase at the discounted strike K_d = discount * s0.

    Each day the holder buys one unit (two while the close sits below
    K_d), booking CF_t = q_t * (S_t - K_d).  The contract
    knocks out the first day the close reaches ko_ratio * s0; that day's
    purchase still settles, and a knock-out is an early termination even
    on the final day.
    """

    discount: float = 0.9
    ko_ratio: float = 1.2

    def __post_init__(self) -> None:
        if not 0.0 < self.discount < 1.0:
            raise ConfigError("discount must lie in (0, 1)")
        if not math.isfinite(self.ko_ratio) or self.ko_ratio <= 1.0:
            raise ConfigError("ko_ratio must be finite and exceed 1")

    @classmethod
    def from_contracts(cls, section):
        return cls(discount=section.acc_discount, ko_ratio=section.acc_ko)

    def _flows(self, closes, s0, calendar) -> PathFlows:
        length, n = closes.shape
        # q_t * (S_t - K_d): S_t - K_d is negative exactly where S_t < K_d,
        # and adding its negative part doubles it there (a + a is exact); a
        # day at a time, since a second (L, N) float array would cost its
        # page faults
        amounts = closes - self.discount * s0
        negative = np.empty(n)
        for row in amounts:
            row += np.minimum(row, 0.0, out=negative)
        hit = closes >= self.ko_ratio * s0
        first = _first_hits(hit)
        # hit[d - 1] read "knocked out by day d"; now "live after day d"
        np.logical_not(hit, out=hit)
        amounts[1:] *= hit[:-1]
        knocked_out = first < length
        stop = np.minimum(first + 1, length)
        return PathFlows(np.arange(1, length + 1)[None, :], amounts.T, stop, knocked_out)


@dataclass(frozen=True)
class Snowball(_Contract):
    """Autocallable note: KO coupon, daily KI, downside at maturity.

    KO is observed every ko_obs_stride (5) trading days and on the final
    day; the first observation at or above ko_ratio * s0 ends the
    contract with a coupon accrued over elapsed calendar time.  KI is
    observed daily below ki_ratio * s0.  If KI was ever hit and KO
    never, the holder bears min(S_T/s0 - 1, 0) on the notional (floored
    at -notional); with neither event the full-horizon coupon is paid.
    Amounts exclude the principal leg; only a KO before the final day is
    an early termination.  Quotes are absolute, in units of the notional.
    """

    quote_mode: ClassVar[str] = "absolute"
    default_levels: ClassVar[tuple[float, ...]] = ABSOLUTE_LEVELS
    needs_calendar: ClassVar[bool] = True
    ko_obs_stride: ClassVar[int] = 5

    ko_ratio: float = 1.05
    ki_ratio: float = 0.8
    coupon_pa: float = 0.15
    notional: float = 1_000_000.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.ko_ratio, self.ki_ratio,
                                       self.coupon_pa, self.notional))):
            raise ConfigError("snowball ratios, coupon and notional must be finite")
        if not self.ki_ratio < 1.0 < self.ko_ratio:
            raise ConfigError("need ki_ratio < 1 < ko_ratio")
        if self.ki_ratio <= 0.0:
            raise ConfigError("ki_ratio must be positive")
        if self.coupon_pa < 0.0:
            raise ConfigError("coupon_pa must be non-negative")
        if self.notional <= 0.0:
            raise ConfigError("notional must be positive")

    @property
    def quote_notional(self) -> float:
        return self.notional

    @classmethod
    def from_contracts(cls, section):
        return cls(ko_ratio=section.snow_ko, ki_ratio=section.snow_ki,
                   coupon_pa=section.snow_coupon, notional=section.snow_notional)

    def _flows(self, closes, s0, cal_frac) -> PathFlows:
        length = len(closes)
        day = np.arange(1, length + 1)
        observed = day[(day % self.ko_obs_stride == 0) | (day == length)]
        first = _first_hits(closes[observed - 1] >= self.ko_ratio * s0)
        knocked_out = first < len(observed)
        # the final day is the last observation: without a KO, stop ==
        # length and the coupon accrues to maturity
        stop = observed[np.minimum(first, len(observed) - 1)]
        coupon = self.notional * self.coupon_pa * cal_frac[stop - 1]
        knocked_in = (closes < self.ki_ratio * s0).any(axis=0)
        downside = self.notional * np.maximum(
            np.minimum(closes[-1] / s0 - 1.0, 0.0), -1.0
        )
        amount = np.where(knocked_out | ~knocked_in, coupon, downside)
        return PathFlows(stop[:, None], amount[:, None], stop, stop < length)


ContractSpec = Union[European, Lookback, Asian, Accumulator, Snowball]
CONTRACT_TYPES = (European, Lookback, Asian, Accumulator, Snowball)


@dataclass(frozen=True)
class CashFlowSchedule:
    """Dated cash flows plus the day the contract stopped."""

    days: np.ndarray  # 1-based trading-day offsets, strictly increasing
    amounts: np.ndarray
    termination_day: int
    terminated_early: bool

    def __post_init__(self) -> None:
        days = np.asarray(self.days, dtype=np.int64)
        amounts = np.asarray(self.amounts, dtype=float)
        if days.shape != amounts.shape:
            raise DataError("days and amounts must align")
        if len(days) > 1 and not np.all(np.diff(days) > 0):
            raise DataError("cash-flow days must be strictly increasing")
        if len(days) and days[-1] > self.termination_day:
            raise DataError("cash flow after termination day")
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "amounts", amounts)


def contract_cashflows(
    contract: ContractSpec, path, s0: float, cal_frac=None
) -> CashFlowSchedule:
    """One path's schedule: the kernel on a (1, n) row, cut at the stop day."""
    path = np.asarray(path, dtype=float)
    if path.ndim != 1 or path.size == 0:
        raise DataError("path must be a non-empty 1-d close vector")
    days, amounts, stop, early = contract.cashflows(path[None, :], s0, cal_frac)
    days = np.broadcast_to(days, amounts.shape)[0]
    live = days <= stop[0]
    return CashFlowSchedule(days[live], amounts[0, live], int(stop[0]), bool(early[0]))
