"""Daily price series handling: ingestion, synthesis, windowing, conditioning.

Conventions used throughout the package:

* A series stores one row per calendar day; ``is_trading_day`` flags the
  days on which the close actually moves.  Non-trading days carry the
  previous close forward.
* Log returns are defined between consecutive trading days,
  ``r_t = ln(S_t / S_{t-1})``.
* Day counts between dates ``s < t``: calendar days ``CD(s, t) = t - s``
  (start inclusive, end exclusive) and trading days ``TD(s, t)`` = number
  of trading days in ``(s, t]``.  A slice starting on trading day ``s``
  with a ``w``-calendar-day window therefore has ``CD = w`` and its valid
  log returns are exactly the ``TD(s, s+w)`` returns ending inside the
  window, so prices rebuild from ``s0`` by exponentiating the cumulative
  sum.
* Annualization uses 365 calendar days and 252 trading days per year.
* Every file pqlab writes goes through ``artifact``: a temporary name, then ``os.replace``.
"""

from __future__ import annotations

import csv
import math
import os
import re
import zipfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

TRADING_DAYS_PER_YEAR = 252
CALENDAR_DAYS_PER_YEAR = 365

# Historical-volatility lookback: up to one trading year strictly before
# the slice start, rejecting slices with fewer than 60 prior trading days.
SIGMA_HIST_DAYS = 252
SIGMA_HIST_MIN_DAYS = 60
# Longest synthetic series: 2**18 calendar days (718 years) make per-day
# arrays of 2 MiB (float64) and about 168,000 slices per window length;
# ``prepare`` then peaks near 200 MB and writes a 37 MB slices.npz.
MAX_DAYS = 2**18


@dataclass(frozen=True)
class DailySeries:
    """One row per calendar day; closes carry forward over non-trading days."""

    dates: np.ndarray  # datetime64[D], strictly increasing
    closes: np.ndarray  # float, > 0
    is_trading_day: np.ndarray  # bool

    def __post_init__(self) -> None:
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        closes = np.asarray(self.closes, dtype=float)
        trading = np.asarray(self.is_trading_day, dtype=bool)
        if not (len(dates) == len(closes) == len(trading)):
            raise DataError("series columns must have equal length")
        if len(dates) > 1 and not np.all(np.diff(dates).astype(int) > 0):
            raise DataError("series dates must be strictly increasing")
        if not np.all(np.isfinite(closes)) or np.any(closes <= 0.0):
            raise DataError("series closes must be finite and positive")
        if int(trading.sum()) < 2:
            raise DataError("series needs at least 2 trading days")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "closes", closes)
        object.__setattr__(self, "is_trading_day", trading)

    @property
    def trading_dates(self) -> np.ndarray:
        return self.dates[self.is_trading_day]

    @property
    def trading_closes(self) -> np.ndarray:
        return self.closes[self.is_trading_day]


@dataclass(frozen=True)
class RateTable:
    """Annualized risk-free rate per date for a single tenor, forward-filled."""

    tenor_days: int
    dates: np.ndarray  # datetime64[D], strictly increasing
    rates: np.ndarray  # float, finite

    def __post_init__(self) -> None:
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        rates = np.asarray(self.rates, dtype=float)
        if len(dates) != len(rates) or len(dates) == 0:
            raise DataError("rate table must be non-empty with equal columns")
        if len(dates) > 1 and not np.all(np.diff(dates).astype(int) > 0):
            raise DataError("rate table dates must be strictly increasing")
        if not np.all(np.isfinite(rates)):
            raise DataError("rates must be finite")
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "rates", rates)

    def rate_at(self, date):
        """Most recent rate at or before `date` (forward fill by date).

        A single date gives a float; an array of dates gives an array of
        rates, and a date before the first rate is a DataError naming the
        first such date.
        """
        days = np.asarray(date, dtype="datetime64[D]")
        idx = np.searchsorted(self.dates, days, side="right") - 1
        missing = idx < 0
        if missing.any():
            first = date if days.ndim == 0 else days[missing][0]
            raise DataError(
                f"no {self.tenor_days}-day rate available on or before {first}"
            )
        return float(self.rates[idx]) if days.ndim == 0 else self.rates[idx]


@dataclass(frozen=True)
class ConditionVector:
    """Per-slice conditioning features.

    sigma_hist  annualized volatility over the lookback year before start
    r           matched risk-free rate (tenor == window calendar days)
    t_calendar  CD(start, end) / 365
    t_trading   TD(start, end) / 252
    n_trading   trading days in the slice (== number of valid returns)
    """

    sigma_hist: float
    r: float
    t_calendar: float
    t_trading: float
    n_trading: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_hist) and self.sigma_hist >= 0.0):
            raise DataError("sigma_hist must be finite and non-negative")
        for name in ("r", "t_calendar", "t_trading"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_trading < 1:
            raise DataError("slice needs at least one trading day")
        if self.t_trading > self.t_calendar + 1e-12:
            raise DataError("t_trading exceeds t_calendar")

    def as_array(self) -> np.ndarray:
        """Model-input feature vector; n_trading shares t_trading's scale."""
        return np.array(
            [
                self.sigma_hist,
                self.r,
                self.t_calendar,
                self.t_trading,
                self.n_trading / TRADING_DAYS_PER_YEAR,
            ]
        )


@dataclass(frozen=True)
class PathSlice:
    """One training/test sample: its log-return sequence plus features."""

    s0: float
    log_returns: np.ndarray  # length == condition.n_trading
    condition: ConditionVector
    window_calendar_days: int
    start_date: np.datetime64

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s0) and self.s0 > 0.0):
            raise DataError(f"s0 must be finite and positive, got {self.s0}")
        lr = np.asarray(self.log_returns, dtype=float)
        if not np.isfinite(lr).all():
            raise DataError("log_returns must be finite")
        if len(lr) != self.condition.n_trading:
            raise DataError(
                f"slice has {len(lr)} returns, its condition says "
                f"n_trading = {self.condition.n_trading}"
            )
        object.__setattr__(self, "log_returns", lr)


@dataclass(frozen=True)
class SplitSlices:
    """slice_dataset output: train/test partition plus skip diagnostics.

    ``load_slices`` leaves a group it does not unpack as None.
    """

    train: list | None
    test: list | None
    skipped: Counter
    l_max: int


def log_returns(closes: np.ndarray) -> np.ndarray:
    """Vectorized log returns between consecutive entries."""
    closes = np.asarray(closes, dtype=float)
    if np.any(closes <= 0.0):
        raise DataError("log returns require strictly positive prices")
    return np.diff(np.log(closes))


def to_prices(s0: float, returns: np.ndarray) -> np.ndarray:
    """Rebuild the price path from the initial price and log returns.

    The result excludes s0 itself: element i is the close after i+1
    return steps, so out.shape == returns.shape (a 2-D array is one path per row).
    """
    if s0 <= 0.0:
        raise DataError("initial price must be strictly positive")
    return s0 * np.exp(np.cumsum(np.asarray(returns, dtype=float), axis=-1))


def child_seed(*parts) -> int:
    """A 32-bit seed for the stream named by ``parts`` (a SeedSequence word)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text) -> np.datetime64:
    """A literal ``YYYY-MM-DD`` date, or a datetime64 value, as datetime64[D].

    Anything else (NaT included) is a ValueError.  ``np.datetime64`` alone
    also accepts ``today`` and ``now`` (the wall clock), a bare year or
    month, a time of day, and ``20160105`` (the year 20160105), so a rerun
    on another day could read another date.  A datetime64 value is already
    a date; a finer one is cut to its day.
    """
    if isinstance(text, np.datetime64) and not np.isnat(text):
        return text.astype("datetime64[D]")
    if not (isinstance(text, str) and _ISO_DATE.fullmatch(text)):
        raise ValueError(f"expected a YYYY-MM-DD date, got {text!r}")
    return np.datetime64(text, "D")


def annualized_volatility(returns: np.ndarray) -> float:
    """Sample standard deviation of log returns scaled by sqrt(252)."""
    returns = np.asarray(returns, dtype=float)
    if returns.size < 2:
        raise DataError("volatility needs at least 2 returns")
    return float(np.std(returns, ddof=1) * math.sqrt(TRADING_DAYS_PER_YEAR))


def _csv_rows(path, header: tuple) -> list:
    """Data rows of a UTF-8 CSV with (at least) ``header``'s columns.

    An unreadable, non-UTF-8 or malformed file, a missing column and an
    empty file are DataErrors.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(header) <= set(reader.fieldnames):
                raise DataError(f"{path}: expected header {','.join(header)}")
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def load_series_csv(path) -> DailySeries:
    """Read a `date,close,is_trading_day` CSV into a DailySeries.

    ``is_trading_day`` is 0 or 1.
    """
    dates, closes, trading = [], [], []
    for row in _csv_rows(path, ("date", "close", "is_trading_day")):
        try:
            dates.append(parse_date(row["date"]))
            closes.append(float(row["close"]))
            flag = int(row["is_trading_day"])
            if flag not in (0, 1):
                raise ValueError(f"is_trading_day must be 0 or 1, got {flag}")
            trading.append(bool(flag))
        except (ValueError, TypeError) as exc:
            raise DataError(f"{path}: bad row {row}: {exc}") from exc
    return DailySeries(np.array(dates), np.array(closes), np.array(trading))


def load_rates_csv(path) -> dict:
    """Read a `date,tenor_days,rate` CSV into {tenor_days: RateTable}."""
    rows = {}
    for row in _csv_rows(path, ("date", "tenor_days", "rate")):
        try:
            tenor = int(row["tenor_days"])
            date = parse_date(row["date"])
            rate = float(row["rate"])
        except (ValueError, TypeError) as exc:
            raise DataError(f"{path}: bad row {row}: {exc}") from exc
        rows.setdefault(tenor, []).append((date, rate))
    tables = {}
    for tenor, pairs in rows.items():
        pairs.sort(key=lambda p: p[0])
        dates = np.array([p[0] for p in pairs], dtype="datetime64[D]")
        rates = np.array([p[1] for p in pairs], dtype=float)
        tables[tenor] = RateTable(tenor, dates, rates)
    return tables


# Skip reasons in the order a candidate slice is checked; a slice's reason
# code is its 1-based position here, 0 for a kept slice.
SKIP_REASONS = ("window_past_series_end", "straddles_split", "no_trading_days",
                "trading_density_too_high", "insufficient_history")

# sigma_hist takes one np.std per block of this many starts, so the
# (starts x 251) window matrix stays a few MB on a long series.
SIGMA_BLOCK_STARTS = 2048


def _sigma_hist(returns: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """sigma_hist at each trading-day index in ``starts`` (each at least
    SIGMA_HIST_MIN_DAYS): annualized_volatility of returns
    max(0, s - 252) .. s - 2, bit for bit.

    Each start's window is a row of one sliding-window view over the
    returns behind 251 zeros; ``where`` keeps a first-year start's row to
    its returns.  ``np.std`` reduces each row like a 1-d call does, so the
    bits match.
    """
    width = SIGMA_HIST_DAYS - 1
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([np.zeros(width), returns]), width)
    # row s - 1 ends at return s - 2; its last min(s - 1, 251) entries are returns
    skip = width - np.minimum(starts - 1, width)
    out = np.empty(len(starts))
    for b in range(0, len(starts), SIGMA_BLOCK_STARTS):
        block = slice(b, b + SIGMA_BLOCK_STARTS)
        out[block] = np.std(windows[starts[block] - 1], axis=1, ddof=1,
                            where=np.arange(width) >= skip[block, None])
    return out * math.sqrt(TRADING_DAYS_PER_YEAR)


def slice_dataset(
    series: DailySeries,
    rates: dict,
    windows,
    split_date,
    stride: int = 1,
) -> SplitSlices:
    """Cut sliding windows from a daily series and split by start date.

    A slice starts on each trading day (stride in trading days) and spans
    `window` calendar days.  Slices starting before `split_date` belong to
    the training set but are dropped if any price they would touch falls on
    or after the split (look-ahead prevention); slices starting on or after
    the split form the test set.  ``l_max`` is the longest slice's length.

    The trading closes' log returns are taken once, as one read-only
    series (return i runs from trading day i to i + 1).  A slice from
    trading day s to e, the last one in its window, holds a view of returns
    s .. e - 1; its sigma_hist is the annualized volatility of the returns
    among the up to 252 closes before s, of which there must be 60.

    Every (start, window) candidate is judged at once: one searchsorted
    finds all stops, one reason code per candidate gives the skip counts,
    ``_sigma_hist`` takes the kept starts' volatilities in one ``np.std``
    call per block of starts, and ``RateTable.rate_at`` looks up each
    window's rates for its kept starts.  Only the kept slices are then
    built, start by start and window by window, through the checked
    ``ConditionVector`` and ``PathSlice``.

    Skip reasons (counted, not fatal; ``SKIP_REASONS``): window running off
    the end of the series, split straddle, no trading day in the window,
    trading-day density above 252/365 (which would break t_trading <=
    t_calendar), not enough history for sigma_hist.

    `split_date` is a literal YYYY-MM-DD or a datetime64 (``parse_date``);
    anything else is a ConfigError.  Raises DataError if a window has no
    rate table of matching tenor, or if a kept slice starts before its
    table's first rate (naming the first such slice in start order).
    """
    windows = sorted(set(int(w) for w in windows))
    if not windows:
        raise ConfigError("need at least one window length")
    for w in windows:
        if w not in rates:
            raise DataError(f"no rate table with tenor {w} days")
    try:
        split = parse_date(split_date)
    except ValueError as exc:
        raise ConfigError(f"split_date: {exc}") from exc
    last = series.dates[-1]
    if not (series.dates[0] < split <= last):
        raise DataError("split date must fall inside the series")

    t_dates = series.trading_dates
    t_closes = series.trading_closes
    returns = log_returns(t_closes)
    returns.flags.writeable = False  # every slice holds a view of it

    # one row per start, one column per window
    starts = np.arange(0, len(t_dates), stride)
    start_dates = t_dates[starts]
    is_train = start_dates < split
    width = np.array(windows)
    ends = start_dates[:, None] + width.astype("timedelta64[D]")
    stops = np.searchsorted(t_dates, ends, side="right")
    n_trading = stops - (starts[:, None] + 1)
    history = starts - np.maximum(0, starts - SIGMA_HIST_DAYS)
    reason = np.select(
        [ends > last,
         is_train[:, None] & (ends >= split),  # would touch the split
         n_trading < 1,
         n_trading * CALENDAR_DAYS_PER_YEAR > width * TRADING_DAYS_PER_YEAR,
         (history < SIGMA_HIST_MIN_DAYS)[:, None]],
        np.arange(1, len(SKIP_REASONS) + 1), 0)
    counts = np.bincount(reason.ravel(), minlength=len(SKIP_REASONS) + 1)
    skipped = Counter({name: int(n) for name, n in zip(SKIP_REASONS, counts[1:]) if n})

    kept = reason == 0
    row, col = np.nonzero(kept)  # start by start
    sigma = np.full(len(starts), np.nan)
    kept_rows = np.flatnonzero(kept.any(axis=1))
    sigma[kept_rows] = _sigma_hist(returns, starts[kept_rows])
    rate = np.empty(len(row))
    try:
        for k, w in enumerate(windows):
            rate[col == k] = rates[w].rate_at(start_dates[row[col == k]])
    except DataError:
        # name the slice a start-by-start scan would fail on first
        for i, k in zip(row.tolist(), col.tolist()):
            rates[windows[k]].rate_at(start_dates[i])
        raise

    train, test = [], []
    n_kept = n_trading[row, col]
    in_train = is_train.tolist()
    for i, k, start_idx, stop_idx, n, s0, sig, r in zip(
            row.tolist(), col.tolist(), starts[row].tolist(), stops[row, col].tolist(),
            n_kept.tolist(), t_closes[starts[row]].tolist(), sigma[row].tolist(),
            rate.tolist()):
        cond = ConditionVector(
            sigma_hist=sig,
            r=r,
            t_calendar=windows[k] / CALENDAR_DAYS_PER_YEAR,
            t_trading=n / TRADING_DAYS_PER_YEAR,
            n_trading=n,
        )
        sl = PathSlice(
            s0=s0,
            log_returns=returns[start_idx : stop_idx - 1],
            condition=cond,
            window_calendar_days=windows[k],
            start_date=start_dates[i],
        )
        (train if in_train[i] else test).append(sl)
    l_max = int(n_kept.max(initial=0))
    return SplitSlices(train=train, test=test, skipped=skipped, l_max=l_max)


@dataclass(frozen=True)
class GeneratorConfig:
    """Two-regime GBM generator settings (annualized drift/vol)."""

    n_days: int = 400  # calendar days
    s0: float = 100.0
    mu1: float = 0.05
    mu2: float = 0.05
    sigma1: float = 0.15
    sigma2: float = 0.45
    p_switch: float = 0.02  # per-trading-day regime switch probability
    start_date: str = "2015-01-01"

    def __post_init__(self) -> None:
        if self.n_days < 2:
            raise ConfigError("generator needs at least 2 days")
        if self.n_days > MAX_DAYS:
            raise ConfigError(f"generator n_days must be at most {MAX_DAYS}")
        if not (math.isfinite(self.s0) and self.s0 > 0.0):
            raise ConfigError("generator s0 must be finite and positive")
        if not (math.isfinite(self.mu1) and math.isfinite(self.mu2)):
            raise ConfigError("generator drifts must be finite")
        if not all(math.isfinite(v) and v >= 0.0 for v in (self.sigma1, self.sigma2)):
            raise ConfigError("generator volatilities must be finite and non-negative")
        if not 0.0 <= self.p_switch <= 1.0:
            raise ConfigError("p_switch must be a probability")
        try:
            parse_date(self.start_date)
        except ValueError as exc:
            raise ConfigError(f"generator start_date: {exc}") from exc


# Every 10th weekday is a synthetic exchange holiday.  This keeps the
# trading-day density at 9/14 < 252/365 in every window, like a real
# holiday calendar, so trading maturities never exceed calendar ones.
_HOLIDAY_EVERY_N_WEEKDAYS = 10


def synthesize_series(cfg: GeneratorConfig, seed: int) -> DailySeries:
    """Generate a daily close series from a two-regime discrete GBM.

    Trading days are weekdays minus periodic synthetic holidays; closes
    carry forward over non-trading days.  The regime (drift, vol) pair
    follows a symmetric two-state Markov chain sampled per trading day,
    which produces volatility clustering.  Deterministic for fixed seed.
    """
    rng = np.random.default_rng([int(seed), 0xDA7A])
    dates = parse_date(cfg.start_date) + np.arange(cfg.n_days)
    weekday = (dates.astype("datetime64[D]").view("int64") - 4) % 7  # 0=Mon
    is_weekday = weekday < 5
    weekday_no = np.cumsum(is_weekday)  # 1-based among weekdays
    is_holiday = is_weekday & (weekday_no % _HOLIDAY_EVERY_N_WEEKDAYS == 0)
    trading = is_weekday & ~is_holiday

    n_t = int(trading.sum())
    dt = 1.0 / TRADING_DAYS_PER_YEAR
    # the chain flips on each draw below p_switch, starting in regime 0
    regime = np.cumsum(rng.random(n_t) < cfg.p_switch) % 2
    mu = np.where(regime == 0, cfg.mu1, cfg.mu2)
    sigma = np.where(regime == 0, cfg.sigma1, cfg.sigma2)
    z = rng.standard_normal(n_t)
    steps = (mu - 0.5 * sigma**2) * dt + sigma * math.sqrt(dt) * z
    t_closes = cfg.s0 * np.exp(np.cumsum(steps))
    # day i carries the close of the last trading day up to it, s0 before any
    closes = np.append(cfg.s0, t_closes)[np.cumsum(trading)]
    return DailySeries(dates, closes, trading)


SLICES_VERSION = "PQLAB-SLICES v1"

_SLICE_GROUPS = ("train", "test")


def _pack_group(slices) -> dict:
    returns = np.concatenate([np.empty(0)] + [s.log_returns for s in slices])
    offsets = np.cumsum([0] + [len(s.log_returns) for s in slices], dtype=np.int64)
    return {
        "s0": np.array([s.s0 for s in slices], dtype=np.float64),
        "start": np.array([s.start_date for s in slices], dtype="datetime64[D]"),
        "window": np.array([s.window_calendar_days for s in slices], dtype=np.int64),
        "sigma": np.array([s.condition.sigma_hist for s in slices], dtype=np.float64),
        "r": np.array([s.condition.r for s in slices], dtype=np.float64),
        "tcal": np.array([s.condition.t_calendar for s in slices], dtype=np.float64),
        "ttrad": np.array([s.condition.t_trading for s in slices], dtype=np.float64),
        "returns": returns,
        "offsets": offsets,
    }


# slice store column -> the numpy dtype kinds it may have
_COLUMN_KINDS = {"s0": "f", "start": "M", "window": "iu", "sigma": "f", "r": "f",
                 "tcal": "f", "ttrad": "f", "returns": "f", "offsets": "iu"}


def _read_group(archive, group: str) -> dict:
    """One group's columns, checked to describe len(offsets) - 1 slices."""
    # read each member once: every archive[...] lookup re-parses the npz entry
    col = {key: npz_member(archive, f"{group}_{key}", 1, kinds)
           for key, kinds in _COLUMN_KINDS.items()}
    offsets = col["offsets"]
    n_returns = len(col["returns"])
    if not (len(offsets) and offsets[0] == 0 and offsets[-1] == n_returns
            and np.all(offsets[1:] >= offsets[:-1])):
        raise ValueError(f"{group}_offsets must rise from 0 to {n_returns} "
                         f"without decreasing, got {offsets}")
    for key, values in col.items():
        if key not in ("returns", "offsets") and len(values) != len(offsets) - 1:
            raise ValueError(f"{group}_{key} has {len(values)} entries for "
                             f"{len(offsets) - 1} slices")
    return col


def _check_values(col: dict, group: str) -> None:
    """The value checks that ConditionVector and PathSlice make, over the
    columns of a group that is read but not unpacked; a ValueError names
    the first failing column."""
    s0, sigma, r, tcal, ttrad = (col[key].astype(np.float64, copy=False)
                                 for key in ("s0", "sigma", "r", "tcal", "ttrad"))
    checks = (
        ("sigma", "finite and non-negative", np.isfinite(sigma) & (sigma >= 0.0)),
        ("r", "finite", np.isfinite(r)),
        ("tcal", "finite", np.isfinite(tcal)),
        ("ttrad", "finite", np.isfinite(ttrad)),
        ("offsets", "strictly increasing (a slice needs a trading day)",
         np.diff(col["offsets"]) >= 1),
        ("ttrad", "at most tcal", ~(ttrad > tcal + 1e-12)),
        ("s0", "finite and positive", np.isfinite(s0) & (s0 > 0.0)),
        ("returns", "finite", np.isfinite(col["returns"])),
    )
    for key, what, ok in checks:
        if not ok.all():
            raise ValueError(f"{group}_{key} must be {what}")


def _unpack_group(col: dict) -> list:
    # one .tolist() per column, not a numpy scalar cast per slice; start
    # stays datetime64 (its .tolist() would give datetime.date)
    offsets, window = col["offsets"].tolist(), col["window"].tolist()
    s0, sigma, r, tcal, ttrad = (col[key].astype(np.float64, copy=False).tolist()
                                 for key in ("s0", "sigma", "r", "tcal", "ttrad"))
    returns = col["returns"].astype(np.float64, copy=False)
    returns.flags.writeable = False  # every slice holds a view of it
    slices = []
    for i, start in enumerate(col["start"]):
        lo, hi = offsets[i], offsets[i + 1]
        cond = ConditionVector(sigma_hist=sigma[i], r=r[i], t_calendar=tcal[i],
                               t_trading=ttrad[i], n_trading=hi - lo)
        slices.append(PathSlice(s0=s0[i], log_returns=returns[lo:hi],
                                condition=cond, window_calendar_days=window[i],
                                start_date=start))
    return slices


def save_slices(path, split: SplitSlices) -> None:
    """Persist a SplitSlices partition as a versioned npz slice store."""
    payload = {
        "version": np.array(SLICES_VERSION),
        "l_max": np.array(split.l_max, dtype=np.int64),
        "skipped_names": np.array(sorted(split.skipped)),
        "skipped_counts": np.array(
            [split.skipped[k] for k in sorted(split.skipped)], dtype=np.int64
        ),
    }
    for group, slices in (("train", split.train), ("test", split.test)):
        for key, arr in _pack_group(slices).items():
            payload[f"{group}_{key}"] = arr
    with artifact(path, "wb") as fh:
        np.savez(fh, **payload)


@contextmanager
def read_npz(path, what: str):
    """Open an npz archive; unreadable, truncated or incomplete ones raise DataError.

    A KeyError or ValueError raised while the archive is open (a missing
    member, or one that ``npz_member`` rejects) becomes a DataError naming
    the file.
    """
    try:
        archive = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError(f"{what} {path} is not an npz archive")
    with archive:
        try:
            yield archive
        except (KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise DataError(f"corrupt {what} {path}: {exc}") from exc


def npz_member(archive, key: str, ndim: int, kinds: str) -> np.ndarray:
    """archive[key], which must have ``ndim`` dimensions and, unless it is
    empty, a dtype kind in ``kinds`` (numpy's one-letter codes: ``f`` float,
    ``iu`` integer, ``U`` text, ``M`` date); otherwise a ValueError."""
    value = archive[key]
    if value.ndim != ndim or (value.size and value.dtype.kind not in kinds):
        raise ValueError(f"{key} must be a {ndim}-d array of dtype kind {kinds}, "
                         f"got {value.dtype} of shape {value.shape}")
    return value


def load_slices(path, groups=_SLICE_GROUPS) -> SplitSlices:
    """Load a slice store written by save_slices.

    Besides the member checks, the offsets must cut the returns into one
    slice per entry of every column, l_max must be the longest slice, and
    each skipped reason needs one count; anything else is a DataError.

    ``groups`` names the groups to unpack into PathSlices ("train",
    "test" or both); a group left out is None on the result, though its
    columns are still read and their values checked like a slice's.  An
    unpacked slice holds a read-only view of its group's returns.
    """
    unknown = set(groups) - set(_SLICE_GROUPS)
    if unknown:
        raise ValueError(f"unknown slice group(s) {sorted(unknown)}")
    with read_npz(path, "slice store") as archive:
        if str(archive["version"]) != SLICES_VERSION:
            raise DataError(f"unsupported slice store version {archive['version']!r}")
        l_max = int(npz_member(archive, "l_max", 0, "iu"))
        names = npz_member(archive, "skipped_names", 1, "U")
        counts = npz_member(archive, "skipped_counts", 1, "iu")
        if len(names) != len(counts):
            raise ValueError(f"{len(names)} skipped_names but {len(counts)} skipped_counts")
        cols = {group: _read_group(archive, group) for group in _SLICE_GROUPS}
        longest = max(int(np.diff(col["offsets"]).max(initial=0))
                      for col in cols.values())
        if longest != l_max:
            raise ValueError(f"l_max = {l_max}, but the longest slice has {longest} returns")
        unpacked = {}
        for group, col in cols.items():
            if group in groups:
                unpacked[group] = _unpack_group(col)
            else:
                _check_values(col, group)
                unpacked[group] = None
        return SplitSlices(
            train=unpacked["train"],
            test=unpacked["test"],
            skipped=Counter({str(name): int(count) for name, count in zip(names, counts)}),
            l_max=l_max,
        )


@contextmanager
def artifact(path, mode: str = "w"):
    """Yield ``<path>.tmp``, open as UTF-8 text with ``newline=""`` (binary for "wb"),
    and ``os.replace`` it onto ``path`` on a clean exit.  An error removes it and
    re-raises, so ``path`` keeps its old bytes; a kill can leave the ``.tmp``, which
    the next write of ``path`` overwrites.  An OSError, of the open, of the
    caller's writes inside the block (a full disk), of the close (the last flush)
    or of the replace, is a DataError naming ``path``; anything else the caller
    raises inside the block passes through as it is."""
    tmp, text = f"{path}.tmp", "b" not in mode
    try:
        with open(tmp, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.isfile(tmp):
            os.remove(tmp)


def write_csv(path, header, rows) -> None:
    """``header``, then ``rows``, as one artifact in csv's default dialect (\\r\\n ends)."""
    with artifact(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_manifest(path, entries: dict) -> None:
    """Plain-text key=value manifest, keys written in sorted order."""
    with artifact(path) as fh:
        fh.writelines(f"{k}={entries[k]}\n" for k in sorted(entries))


def read_manifest(path) -> dict:
    """key=value lines; an unreadable or non-UTF-8 file is a DataError."""
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}: bad manifest line {line!r}")
        key, value = line.split("=", 1)
        entries[key] = value
    return entries


def manifest_value(entries: dict, key: str, parse, path):
    """``parse(entries[key])``; a missing or unparseable value is a DataError."""
    if key not in entries:
        raise DataError(f"{path}: manifest has no {key}")
    try:
        return parse(entries[key])
    except ValueError as exc:
        raise DataError(f"{path}: bad {key} = {entries[key]!r}") from exc
