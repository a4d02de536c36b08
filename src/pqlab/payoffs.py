"""The five contracts and their cash flows on a realized price path.

A ``path`` is the vector of daily closes on the trading days after
inception; the inception close ``s0`` is passed separately.  Day indices
in cash-flow schedules are 1-based offsets into the path (day t is
path[t-1]).  Barrier conventions, fixed at daily closes:

* knock-out triggers at S_t >= barrier (observation day's cash flow is
  still paid for accumulators; snowball coupon accrues to the KO day),
* snowball knock-in triggers at S_t < barrier, checked every day.

``discount_value`` turns a schedule into a present value with
continuous compounding on the trading-day clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, DataError
from .market_paths import TRADING_DAYS_PER_YEAR


@dataclass(frozen=True)
class European:
    """Vanilla call on the terminal close, K = strike_ratio * s0."""

    strike_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.strike_ratio) or self.strike_ratio <= 0.0:
            raise ConfigError("strike_ratio must be finite and positive")


@dataclass(frozen=True)
class Lookback:
    """Fixed-strike call on the path maximum, K = strike_ratio * s0."""

    strike_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.strike_ratio) or self.strike_ratio <= 0.0:
            raise ConfigError("strike_ratio must be finite and positive")


@dataclass(frozen=True)
class Asian:
    """Call on the arithmetic average close, K = strike_ratio * s0."""

    strike_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.strike_ratio) or self.strike_ratio <= 0.0:
            raise ConfigError("strike_ratio must be finite and positive")


@dataclass(frozen=True)
class Accumulator:
    """Daily purchase at the discounted strike K_d = discount * s0.

    Each day the holder buys daily_units units (doubled while the close
    sits below K_d), booking CF_t = q_t * (S_t - K_d).  The contract
    knocks out the first day the close reaches ko_ratio * s0; that day's
    purchase still settles.
    """

    discount: float = 0.9
    ko_ratio: float = 1.2
    daily_units: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.discount < 1.0:
            raise ConfigError("discount must lie in (0, 1)")
        if not math.isfinite(self.ko_ratio) or self.ko_ratio <= 1.0:
            raise ConfigError("ko_ratio must be finite and exceed 1")
        if not math.isfinite(self.daily_units) or self.daily_units <= 0.0:
            raise ConfigError("daily_units must be finite and positive")


@dataclass(frozen=True)
class Snowball:
    """Autocallable note: KO coupon, daily KI, downside at maturity.

    KO is observed every ko_obs_stride trading days and on the final
    day; the first observation at or above ko_ratio * s0 ends the
    contract with a coupon accrued over elapsed calendar time.  KI is
    observed daily below ki_ratio * s0.  If KI was ever hit and KO
    never, the holder bears min(S_T/s0 - 1, 0) on the notional (floored
    at -notional); with neither event the full-horizon coupon is paid.
    Amounts exclude the principal leg.
    """

    ko_ratio: float = 1.05
    ki_ratio: float = 0.8
    coupon_pa: float = 0.12
    ko_obs_stride: int = 5
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
        if self.ko_obs_stride < 1:
            raise ConfigError("ko_obs_stride must be at least 1")
        if self.notional <= 0.0:
            raise ConfigError("notional must be positive")


ContractSpec = Union[European, Lookback, Asian, Accumulator, Snowball]


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


def _check_path(path) -> np.ndarray:
    path = np.asarray(path, dtype=float)
    if path.ndim != 1 or path.size == 0:
        raise DataError("path must be a non-empty 1-d close vector")
    return path


def european_payoff(path, s0: float, strike_ratio: float = 1.0) -> float:
    """max(S_T - K, 0) with K = strike_ratio * s0."""
    path = _check_path(path)
    return max(float(path[-1]) - strike_ratio * s0, 0.0)


def lookback_payoff(path, s0: float, strike_ratio: float = 1.0) -> float:
    """max(max_t S_t - K, 0) with K = strike_ratio * s0."""
    path = _check_path(path)
    return max(float(path.max()) - strike_ratio * s0, 0.0)


def asian_payoff(path, s0: float, strike_ratio: float = 1.0) -> float:
    """max(mean_t S_t - K, 0) with K = strike_ratio * s0."""
    path = _check_path(path)
    return max(float(path.mean()) - strike_ratio * s0, 0.0)


def accumulator_cashflows(path, s0: float, spec: Accumulator) -> CashFlowSchedule:
    """Daily CF_t = q_t * units * (S_t - K_d); KO day settles then stops."""
    path = _check_path(path)
    if s0 <= 0.0:
        raise DataError("s0 must be positive")
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


def snowball_payoff(path, s0: float, spec: Snowball, cal_frac) -> tuple:
    """Evaluate one snowball; returns (amount, termination_day).

    cal_frac[t-1] is the elapsed calendar-year fraction at trading day t,
    so cal_frac[-1] is the contract's full calendar maturity.
    """
    path = _check_path(path)
    cal_frac = np.asarray(cal_frac, dtype=float)
    if cal_frac.shape != path.shape:
        raise DataError("cal_frac must align with the path")
    if s0 <= 0.0:
        raise DataError("s0 must be positive")
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


def classify_snowball(path, s0: float, spec: Snowball) -> str:
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


def linear_calendar_fraction(n_days: int, t_calendar: float) -> np.ndarray:
    """Calendar-year fraction per trading day, linear in the day index.

    Used when no explicit calendar is available (simulated paths); the
    final entry equals the contract's calendar maturity exactly.
    """
    if n_days < 1:
        raise DataError("need at least one day")
    return np.arange(1, n_days + 1, dtype=float) / n_days * t_calendar


def contract_cashflows(
    contract: ContractSpec, path, s0: float, cal_frac=None
) -> CashFlowSchedule:
    """Uniform cash-flow view of any contract on one path."""
    path = _check_path(path)
    n = len(path)
    if isinstance(contract, European):
        amt = european_payoff(path, s0, contract.strike_ratio)
        return CashFlowSchedule(np.array([n]), np.array([amt]), n, False)
    if isinstance(contract, Lookback):
        amt = lookback_payoff(path, s0, contract.strike_ratio)
        return CashFlowSchedule(np.array([n]), np.array([amt]), n, False)
    if isinstance(contract, Asian):
        amt = asian_payoff(path, s0, contract.strike_ratio)
        return CashFlowSchedule(np.array([n]), np.array([amt]), n, False)
    if isinstance(contract, Accumulator):
        return accumulator_cashflows(path, s0, contract)
    if isinstance(contract, Snowball):
        if cal_frac is None:
            raise ConfigError("snowball evaluation needs cal_frac")
        amount, day = snowball_payoff(path, s0, contract, cal_frac)
        return CashFlowSchedule(
            np.array([day]), np.array([amount]), day, day < n
        )
    raise ConfigError(f"unknown contract {contract!r}")


def discount_value(
    cashflows: CashFlowSchedule, r: float, day_count: int = TRADING_DAYS_PER_YEAR
) -> float:
    """Present value: sum of CF_t * exp(-r * t / day_count)."""
    if not math.isfinite(r):
        raise DataError("rate must be finite")
    if len(cashflows.days) == 0:
        return 0.0
    disc = np.exp(-r * cashflows.days.astype(float) / day_count)
    return float(np.dot(cashflows.amounts, disc))
