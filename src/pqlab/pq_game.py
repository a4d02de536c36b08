"""The trader vs market-maker quoting game on held-out slices.

Per test slice, Q computes a risk-neutral GBM Monte Carlo value from the
slice's condition (s0, sigma_hist, matched r, horizon) and quotes a band
around it; P values the same contract over its own path measure.  A trade
fires only when P's value clears the quote by more than the threshold, and
settles against the realized historical path.  Accounting is zero-sum:
Q's P&L is minus P's, bit for bit.

``value_slices`` values the whole book on every test slice.  Q's seed is
one per game, and a slice's GBM settings do not depend on the product, so
one ``price_books`` call prices every product on every slice from one
Brownian block per chunk (common random numbers; each slice's estimate
stays unbiased, only its error is correlated with the other slices').
At ``threads`` above 1 that call runs on one worker thread beside P.
P's sample does not depend on the product either, so each slice gets one
P sample that values every product on one read-only view; ``run_game``
then plays the greediness levels of one product on its slice values.  A
multi-product game therefore equals single-product games byte for byte.
All three legs share one estimator: the realized value is ``p_price`` on
the slice's own close row, so a change to discounting or to the estimate
in ``q_pricer`` reaches Q, P and the settlement alike.

Quotes widen with the greediness level: relative levels scale by |fair| so
the band stays ordered around negative fair values too, absolute levels add
level * notional.  Each contract class names its quote mode, default
levels and notional: snowballs quote absolute spreads on their notional,
everything else quotes relative ones.  ``market_paths.write_csv`` writes the CSVs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .market_paths import TRADING_DAYS_PER_YEAR, PathSlice, child_seed, to_prices, write_csv
# contract_cashflows is re-exported: perfbench wraps pq_game.contract_cashflows by name
from .payoffs import (ABSOLUTE_LEVELS, RELATIVE_LEVELS, CONTRACT_TYPES,  # noqa: F401
                      ContractSpec, contract_cashflows)
# price is re-exported: perfbench wraps pq_game.price by name
from .q_pricer import MAX_Q_PATHS, GbmParams, p_price, price, price_books  # noqa: F401
from .sampler import MAX_PATHS

EPS_DEN = 1e-9
DEFAULT_THRESHOLD = 0.10
# salt of the game's one Q seed, child_seed(game seed, Q_SEED_SALT)
Q_SEED_SALT = 0x51

# product name -> contract class, the one product table
CONTRACTS = {cls.__name__.lower(): cls for cls in CONTRACT_TYPES}
PRODUCTS = tuple(CONTRACTS)

GAME_CSV_HEADER = "level,cum_pnl,trades,longs,shorts,win_rate,sharpe"
SLICES_CSV_HEADER = "start_date,fair,p_value,realized"

LONG = "long"
SHORT = "short"
NONE = "none"


@dataclass(frozen=True)
class Quote:
    """Q's two-sided market around its Monte Carlo fair value."""

    fair: float
    bid: float
    ask: float
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("relative", "absolute"):
            raise ConfigError(f"quote mode must be relative or absolute, got {self.mode!r}")
        if not (self.bid <= self.fair <= self.ask):
            raise DataError(
                f"quote must satisfy bid <= fair <= ask, got {self.bid}, {self.fair}, {self.ask}"
            )


@dataclass(frozen=True)
class TradeRecord:
    """One executed trade and its settlement."""

    contract: ContractSpec
    side: str
    exec_price: float
    p_value: float
    realized: float
    pnl_p: float
    pnl_q: float
    start_date: np.datetime64


@dataclass(frozen=True)
class GameReport:
    """Aggregate row for one greediness level; sharpe None means N/A."""

    level: float
    cum_pnl: float
    trades: int
    longs: int
    shorts: int
    win_rate: float
    sharpe: float | None

    def __post_init__(self) -> None:
        if self.trades != self.longs + self.shorts:
            raise DataError("trades must equal longs + shorts")
        if not 0.0 <= self.win_rate <= 1.0:
            raise DataError("win_rate must lie in [0, 1]")
        if not (math.isfinite(self.cum_pnl) and math.isfinite(self.sharpe or 0.0)):
            raise DataError(f"cum_pnl and sharpe (or None) must be finite, "
                            f"got {self.cum_pnl} and {self.sharpe}")


@dataclass(frozen=True)
class LevelOutcome:
    """One level's report, its trades, and the side taken on every slice."""

    report: GameReport
    records: tuple[TradeRecord, ...]
    sides: tuple[str, ...]


@dataclass(frozen=True)
class GameConfig:
    """The ``[game]`` section; empty ``levels`` means the contract's defaults.

    discount toggles whether the realized leg is discounted to trade date
    before settling (off values it at r = 0; quotes and P values are always
    present values).
    """

    products: tuple[str, ...] = ("european",)
    levels: tuple[float, ...] = ()
    threshold: float = DEFAULT_THRESHOLD
    q_paths: int = 20_000
    p_paths: int = 1_000
    seed: int = 0
    discount: bool = True

    def __post_init__(self) -> None:
        if not self.products:
            raise ConfigError("products must name at least one product")
        for product in self.products:
            if product not in CONTRACTS:
                raise ConfigError(
                    f"unknown product {product!r}; choose from {', '.join(PRODUCTS)}"
                )
        if not all(math.isfinite(lv) and lv >= 0.0 for lv in self.levels):
            raise ConfigError(f"levels must be finite and >= 0, got {self.levels}")
        # -0.0 quotes like 0.0 and must be written under the same name
        object.__setattr__(self, "levels", tuple(map(abs, self.levels)))
        # a repeat would value a book twice or write two columns of one name
        for name in ("products", "levels"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat an entry, got {values}")
        if not math.isfinite(self.threshold) or self.threshold < 0.0:
            raise ConfigError(f"threshold must be finite and >= 0, got {self.threshold}")
        if not 1 <= self.q_paths <= MAX_Q_PATHS:
            raise ConfigError(f"q_paths must be in [1, {MAX_Q_PATHS}], got {self.q_paths}")
        if not 1 <= self.p_paths <= MAX_PATHS:
            raise ConfigError(f"p_paths must be in [1, {MAX_PATHS}], got {self.p_paths}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def default_levels(contract: ContractSpec) -> tuple[float, ...]:
    return contract.default_levels


def make_quote(fair: float, level: float, mode: str = "relative",
               notional: float = 1.0) -> Quote:
    """Two-sided quote at one greediness level.

    Relative: ask/bid = fair +/- level * |fair| (the absolute value keeps
    the band ordered when fair is negative, and matches fair*(1 +/- level)
    for positive fair).  Absolute: fair +/- level * notional.
    """
    if not math.isfinite(fair):
        raise DataError(f"fair value must be finite, got {fair}")
    if not (math.isfinite(level) and level >= 0.0):
        raise ConfigError(f"greediness level must be finite and >= 0, got {level}")
    if mode == "relative":
        half = level * abs(fair)
    elif mode == "absolute":
        if notional <= 0.0:
            raise ConfigError(f"notional must be > 0, got {notional}")
        half = level * notional
    else:
        raise ConfigError(f"quote mode must be relative or absolute, got {mode!r}")
    return Quote(fair=fair, bid=fair - half, ask=fair + half, mode=mode)


def decide_trade(p_value: float, quote: Quote,
                 threshold: float = DEFAULT_THRESHOLD) -> str:
    """Gap rule: trade only when P's value clears the actionable quote.

    Long when (p - ask)/max(|ask|, eps) > threshold, short when
    (bid - p)/max(|bid|, eps) > threshold; ties stay flat.  With
    bid <= ask and threshold >= 0 at most one side can fire.
    """
    if not math.isfinite(p_value):
        raise DataError(f"p_value must be finite, got {p_value}")
    gap_long = (p_value - quote.ask) / max(abs(quote.ask), EPS_DEN)
    if gap_long > threshold:
        return LONG
    gap_short = (quote.bid - p_value) / max(abs(quote.bid), EPS_DEN)
    if gap_short > threshold:
        return SHORT
    return NONE


def settle(side: str, exec_price: float, realized: float) -> tuple[float, float]:
    """Zero-sum settlement; pnl_q is the exact negation of pnl_p."""
    if not (math.isfinite(exec_price) and math.isfinite(realized)):
        raise DataError(f"exec_price {exec_price} and realized {realized} must be finite")
    if side == LONG:
        pnl_p = realized - exec_price
    elif side == SHORT:
        pnl_p = exec_price - realized
    else:
        raise ConfigError(f"cannot settle side {side!r}")
    return pnl_p, -pnl_p


def sharpe_annualized(pnl_by_start_date) -> float | None:
    """mean/std(ddof=1) of the daily P&L series, scaled by sqrt(252).

    Zero variance (including an all-zero series) has no defined ratio and
    returns None.
    """
    series = np.asarray(pnl_by_start_date, dtype=np.float64)
    if series.size < 2:
        raise DataError("sharpe needs at least 2 dated P&L entries")
    std = float(series.std(ddof=1))
    if std == 0.0:
        return None
    return float(series.mean() / std * math.sqrt(TRADING_DAYS_PER_YEAR))


class SliceValue(NamedTuple):
    """One contract on one test slice: Q's, P's and the realized value."""

    start_date: np.datetime64
    fair: float
    p_value: float
    realized: float


def slice_q_params(s: PathSlice, config: GameConfig) -> GbmParams:
    """Q's GBM settings for a test slice: its s0, matched rate, historical
    sigma and horizon, and the game's one Q seed, which depends neither on
    the slice nor on the product, so every slice is priced on the same
    Brownian block."""
    cond = s.condition
    return GbmParams(
        s0=s.s0, r=cond.r, sigma=cond.sigma_hist, n_days=cond.n_trading,
        n_paths=config.q_paths, seed=child_seed(config.seed, Q_SEED_SALT),
    )


def _p_values(idx: int, s: PathSlice, params: GbmParams, book: tuple, p_source,
              config: GameConfig) -> list[tuple[float, float]]:
    # one call per slice: its P paths are dropped before the next slice's arrive
    cond = s.condition
    paths = np.asarray(p_source(s, params), dtype=np.float64).view()
    if paths.ndim != 2 or paths.shape[1] != cond.n_trading:
        raise DataError(
            f"slice {idx}: P paths must be (n, {cond.n_trading}), got {paths.shape}"
        )
    paths.setflags(write=False)
    # the realized leg is P's estimator on the slice's own close row: the
    # mean over one path is that path's discounted value exactly
    row = to_prices(s.s0, s.log_returns)[None, :]
    r_row = cond.r if config.discount else 0.0
    return [(p_price(contract, paths, s.s0, cond.r, t_calendar=cond.t_calendar).value,
             p_price(contract, row, s.s0, r_row, t_calendar=cond.t_calendar).value)
            for contract in book]


def value_slices(test_slices, contracts, p_source, config: GameConfig = GameConfig(),
                 threads: int = 1) -> tuple[tuple[SliceValue, ...], ...]:
    """Value every contract of the book on each test slice.

    One ``price_books`` call prices the book for Q on every slice, from one
    Brownian block per chunk.  At ``threads`` 1 it runs first; above 1 it
    runs on one worker while the main thread values P and the realized
    leg, to the same values and the same error (Q's, when both legs fail).
    Per slice, one p_source(slice, q_params) call returns P's (n_paths,
    n_days) price paths.  q_params (``slice_q_params``) carries the slice's
    s0, matched rate, historical sigma, horizon and the game's Q seed, so a
    source that simulates GBM from it reproduces the paths Q priced (a
    source that samples ahead finds the q_params of later slices with
    ``slice_q_params``).  Every contract is valued on one read-only view of
    those paths, which are dropped before the next slice's call, so the
    source decides how many slices' paths are alive at a time.  Returns one
    SliceValue per slice for each contract, in book order.
    """
    test_slices = list(test_slices)
    if not test_slices:
        raise DataError("no test slices to play")
    book = tuple(contracts)
    params = [slice_q_params(s, config) for s in test_slices]
    jobs = [(book, p, s.condition.t_calendar) for s, p in zip(test_slices, params)]

    def p_leg():
        return [_p_values(idx, s, q_params, book, p_source, config)
                for idx, (s, q_params) in enumerate(zip(test_slices, params))]

    if threads < 2:
        fairs, p_rows = price_books(jobs), p_leg()
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            q = pool.submit(price_books, jobs)
            try:
                p_rows = p_leg()
            finally:  # one thread prices Q first, so Q's error wins over P's
                fairs = q.result()
    rows = [[SliceValue(s.start_date, fair.value, p_value, realized)
             for fair, (p_value, realized) in zip(book_fairs, p_row)]
            for s, book_fairs, p_row in zip(test_slices, fairs, p_rows)]
    return tuple(zip(*rows))


def run_game(values, contract: ContractSpec,
             config: GameConfig = GameConfig()) -> tuple[LevelOutcome, ...]:
    """Play every greediness level of config.levels on one contract's values.

    ``values`` is the contract's entry of ``value_slices``: the slice
    valuations are shared across levels, and only the quotes change.
    """
    levels = [float(level) for level in config.levels or contract.default_levels]
    mode = contract.quote_mode
    notional = contract.quote_notional
    all_dates = sorted({v.start_date for v in values})
    outcomes = []
    for level in levels:
        records = []
        sides = []
        pnl_by_date: defaultdict = defaultdict(float)
        for start_date, fair, p_value, realized in values:
            quote = make_quote(fair, level, mode, notional)
            side = decide_trade(p_value, quote, config.threshold)
            sides.append(side)
            if side == NONE:
                continue
            exec_price = quote.ask if side == LONG else quote.bid
            pnl_p, pnl_q = settle(side, exec_price, realized)
            pnl_by_date[start_date] += pnl_p
            records.append(TradeRecord(
                contract=contract, side=side, exec_price=exec_price,
                p_value=p_value, realized=realized, pnl_p=pnl_p, pnl_q=pnl_q,
                start_date=start_date,
            ))
        trades = len(records)
        longs = sum(1 for rec in records if rec.side == LONG)
        wins = sum(1 for rec in records if rec.pnl_p > 0.0)
        daily = [pnl_by_date[d] for d in all_dates]
        sharpe = sharpe_annualized(daily) if len(daily) >= 2 else None
        report = GameReport(
            level=level,
            cum_pnl=math.fsum(rec.pnl_p for rec in records),
            trades=trades,
            longs=longs,
            shorts=trades - longs,
            win_rate=(wins / trades) if trades else 0.0,
            sharpe=sharpe,
        )
        outcomes.append(LevelOutcome(report=report, records=tuple(records),
                                     sides=tuple(sides)))
    return tuple(outcomes)


def gbm_p_source(s: PathSlice, q_params: GbmParams) -> np.ndarray:
    """P path source that reuses Q's own simulation; useful as a null model."""
    from .q_pricer import simulate_gbm

    return simulate_gbm(q_params)


# ---------------------------------------------------------------------------
# reporting


def _sharpe_text(sharpe: float | None) -> str:
    return "NA" if sharpe is None else repr(float(sharpe))


def write_game_csv(path, reports) -> None:
    """One CSV row per greediness level; repr() keeps floats lossless."""
    write_csv(path, GAME_CSV_HEADER.split(","), ([
        repr(float(rep.level)), repr(float(rep.cum_pnl)), rep.trades, rep.longs,
        rep.shorts, repr(float(rep.win_rate)), _sharpe_text(rep.sharpe),
    ] for rep in reports))


def write_slices_csv(path, values, outcomes) -> None:
    """One row per test slice: Q's fair value, P's value, the realized value
    (repr, lossless) and the side taken at each level, one column per level."""
    sides = [f"side_{float(o.report.level)!r}" for o in outcomes]
    write_csv(path, SLICES_CSV_HEADER.split(",") + sides, (
        [str(start_date), repr(float(fair)), repr(float(p_value)), repr(float(realized))]
        + [o.sides[i] for o in outcomes]
        for i, (start_date, fair, p_value, realized) in enumerate(values)))


def format_game_table(reports, title: str = "") -> str:
    """Aligned text table over the same columns as the CSV."""
    header = GAME_CSV_HEADER.split(",")
    rows = [header]
    for rep in reports:
        rows.append([
            f"{rep.level:g}", f"{rep.cum_pnl:.4f}", str(rep.trades),
            str(rep.longs), str(rep.shorts), f"{rep.win_rate:.3f}",
            "NA" if rep.sharpe is None else f"{rep.sharpe:.3f}",
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [] if not title else [title]
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"
