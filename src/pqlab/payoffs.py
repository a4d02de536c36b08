"""The five contracts, each valued by one vectorised cash-flow kernel.

A contract's ``_flows`` is the only place its rules live: it maps an
``(N, L)`` matrix of closes on the trading days after inception (day t is
column t-1; the inception close ``s0`` is passed apart) to ``PathFlows``.
``cashflows`` is its checked entry.  ``q_pricer.discounted_values``
discounts a path set's flows, for Q, for P and for the realized leg the
game settles; ``contract_cashflows`` reads one ``(1, n)`` row back as a
dated ``CashFlowSchedule``, the one-path view the hand-traced checks
compare.  Each
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
    """Column k of ``amounts`` (N, K) pays on 1-based day ``days[:, k]``."""

    days: np.ndarray  # int, broadcasts against amounts: (1, K) or (N, K)
    amounts: np.ndarray  # fresh (the caller may scale it in place); 0 where a path pays nothing
    stop_day: np.ndarray  # (N,) last live day
    terminated_early: np.ndarray  # (N,) bool


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
        """Cash flows on every row of an (N, L) close matrix.

        ``calendar``, where needed, is the per-day calendar-year fraction or
        the maturity t_calendar (a clock linear in the day index).  Bad
        closes, s0 or calendar are DataErrors.
        """
        paths = np.asarray(paths, dtype=float)
        if paths.ndim != 2 or paths.size == 0:
            raise DataError("paths must be a non-empty (n_paths, n_days) matrix")
        if not np.isfinite(paths).all():
            raise DataError("paths must be finite")
        if not (math.isfinite(s0) and s0 > 0.0):
            raise DataError(f"s0 must be finite and positive, got {s0}")
        if self.needs_calendar:
            if calendar is None:
                raise DataError(f"{type(self).__name__} valuation needs t_calendar")
            if np.ndim(calendar) == 0:
                calendar = linear_calendar_fraction(paths.shape[1], calendar)
            calendar = np.asarray(calendar, dtype=float)
            if calendar.shape != paths.shape[1:] or not np.isfinite(calendar).all():
                raise DataError("cal_frac must be finite and align with the path")
        return self._flows(paths, s0, calendar)


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

    def _flows(self, paths, s0, calendar) -> PathFlows:
        n, length = paths.shape
        payoff = np.maximum(self._underlying(paths) - self.strike_ratio * s0, 0.0)
        return PathFlows(np.array([[length]]), payoff[:, None],
                         np.full(n, length), np.zeros(n, dtype=bool))


@dataclass(frozen=True)
class European(_TerminalCall):
    """Vanilla call on the terminal close."""

    _underlying = staticmethod(lambda paths: paths[:, -1])


@dataclass(frozen=True)
class Lookback(_TerminalCall):
    """Fixed-strike call on the path maximum."""

    _underlying = staticmethod(lambda paths: paths.max(axis=1))


@dataclass(frozen=True)
class Asian(_TerminalCall):
    """Call on the arithmetic average close."""

    _underlying = staticmethod(lambda paths: paths.mean(axis=1))


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

    def _flows(self, paths, s0, calendar) -> PathFlows:
        n, length = paths.shape
        days = np.arange(1, length + 1)[None, :]
        k_d = self.discount * s0
        # q_t * (S_t - K_d), scaled in place: S_t - K_d is negative exactly
        # where S_t < K_d, and a second (N, L) float array would cost its page faults
        amounts = paths - k_d
        below = amounts < 0.0
        np.multiply(amounts, 2.0, out=amounts, where=below)
        hit = paths >= self.ko_ratio * s0
        first = hit.argmax(axis=1)
        knocked_out = hit[np.arange(n), first]
        stop = np.where(knocked_out, first + 1, length)
        # only a knocked-out row has flows to cancel after its stop day
        rows = np.flatnonzero(knocked_out)
        amounts[rows] *= days <= stop[rows, None]
        return PathFlows(days, amounts, stop, knocked_out)


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
    coupon_pa: float = 0.12
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

    def _flows(self, paths, s0, cal_frac) -> PathFlows:
        n, length = paths.shape
        day = np.arange(1, length + 1)
        observed = day[(day % self.ko_obs_stride == 0) | (day == length)]
        # np.take: the fancy index paths[:, observed - 1] is about 1.7x
        # slower at 252 days
        ko_hit = np.take(paths, observed - 1, axis=1) >= self.ko_ratio * s0
        first = ko_hit.argmax(axis=1)
        knocked_out = ko_hit[np.arange(n), first]
        stop = np.where(knocked_out, observed[first], length)
        # without a KO, stop == length and the coupon accrues to maturity
        coupon = self.notional * self.coupon_pa * cal_frac[stop - 1]
        knocked_in = (paths < self.ki_ratio * s0).any(axis=1)
        downside = self.notional * np.maximum(
            np.minimum(paths[:, -1] / s0 - 1.0, 0.0), -1.0
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
