"""Distributional validation of generated paths against held-out data.

All comparisons pool daily log returns per condition into flat samples; the
reported magnitudes are therefore return-scale.  Aggregation over conditions
produces one (mean, std) pair per metric: the summary table this module
writes through ``market_paths.write_csv``, beside one row per condition.

The KS statistic is computed from scratch via pooled ECDFs, and its
asymptotic p-value from the Kolmogorov limit law by ``_kolmogorov_sf``, a
transcription of the cephes routine behind ``scipy.special.kolmogorov``
(Marsaglia, Tsang & Wang 2003) with the same bits.  The p-value is
approximate for samples smaller than about 35 per side.  The QQ quantiles
are read off the sorted samples by ``_linear_quantiles``, numpy's default
"linear" rule (Hyndman & Fan 1996, definition 7) with ``np.quantile``'s
bits.  So the module needs numpy alone: no command loads scipy, or the
``numpy.ma`` that ``np.quantile`` imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .market_paths import annualized_volatility, write_csv
from .objectives import kurtosis

METRICS = (
    "mean_diff",
    "vol_diff",
    "kurt_diff",
    "ks_stat",
    "ks_pvalue",
    "wasserstein",
    "qq_r2",
)

TABLE_CSV_HEADER = "metric,mean,std"
CONDITIONS_CSV_HEADER = ",".join(("condition",) + METRICS)


@dataclass(frozen=True)
class MetricRow:
    """Per-condition comparison of generated vs real pooled returns."""

    mean_diff: float
    vol_diff: float
    kurt_diff: float
    ks_stat: float
    ks_pvalue: float
    wasserstein: float
    qq_r2: float


@dataclass(frozen=True)
class ValidationReport:
    """Aggregate over conditions: per-metric mean and std (population).

    qq_r2 rows may carry NaN as a not-applicable marker; aggregation
    ignores NaN entries.
    """

    rows: tuple[MetricRow, ...]

    def _values(self, metric: str) -> np.ndarray:
        if metric not in METRICS:
            raise DataError(f"unknown metric {metric!r}")
        return np.array([getattr(row, metric) for row in self.rows], dtype=float)

    def mean(self, metric: str) -> float:
        return float(np.nanmean(self._values(metric)))

    def std(self, metric: str) -> float:
        return float(np.nanstd(self._values(metric)))


def _sample(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise DataError(f"{name} sample is empty")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} sample contains non-finite values")
    return arr


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the supremum ECDF gap over the pooled support; p maps D through
    the Kolmogorov distribution at sqrt(n_eff) * D with
    n_eff = n_a*n_b/(n_a+n_b).
    """
    a = np.sort(_sample(a, "a"))
    b = np.sort(_sample(b, "b"))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    p_value = _kolmogorov_sf(math.sqrt(n_eff) * stat)
    # not clamped: a NaN from the kernel must fail here, not read as 0.0
    if not 0.0 <= p_value <= 1.0:
        raise NumericError(f"KS p-value {p_value} at D = {stat} is not in [0, 1]")
    return stat, p_value


# At or below this x, u = exp(-pi**2 / (8 x**2)) underflows to 0 (cephes: MIN_EXPABLE = -746)
_KS_FLOOR = math.pi / math.sqrt(8 * 746)
_KS_CUTOVER = 0.82
_SQRT_2PI = math.sqrt(2 * math.pi)


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution, as cephes computes it.

    Up to the cutover the Jacobi-theta form P = w u (1 + u^8 + u^24 + u^48),
    with u = exp(-pi^2 / (8 x^2)) and w = sqrt(2 pi) / x, gives sf = 1 - P;
    above it sf = 2 (v - v^4 + v^9 - v^16), v = exp(-2 x^2).  Both series
    are unrolled in cephes' operation order, so the result equals
    ``scipy.special.kolmogorov(x)`` bit for bit.  Two cephes steps are left
    out because no sf bit depends on them: a log-space P for when u
    underflows (1 - P is 1.0 either way), and a final clamp to [0, 1]
    (both branches stay inside it).  A NaN x gives NaN.
    """
    if x <= _KS_FLOOR:
        return 1.0
    if x <= _KS_CUTOVER:
        log_u8 = -math.pi * math.pi / (x * x)
        u8 = math.exp(log_u8)
        p = 1 + math.pow(u8, 3)
        p = 1 + u8 * u8 * p
        p = 1 + u8 * p
        return 1 - p * (_SQRT_2PI / x * math.exp(log_u8 / 8))
    v = math.exp(-2 * x * x)
    v3 = math.pow(v, 3)
    p = 1 - v3 * v3 * v
    p = 1 - v3 * (v * v) * p
    p = 1 - v3 * p
    return 2 * v * p


def wasserstein1(a, b) -> float:
    """First Wasserstein distance between two empirical distributions.

    Equal sizes reduce to the mean absolute difference of matched sorted
    samples; unequal sizes integrate the CDF gap over the pooled support,
    which is the same quantile-function integral.
    """
    a = np.sort(_sample(a, "a"))
    b = np.sort(_sample(b, "b"))
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    pooled = np.sort(np.concatenate([a, b]))
    gaps = np.diff(pooled)
    cdf_a = np.searchsorted(a, pooled[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, pooled[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * gaps))


def qq_r_squared(a, b) -> float:
    """R^2 of the least-squares line through matched quantile pairs.

    Equal sizes pair sorted values directly; otherwise both sides are read
    at min(n_a, n_b) midpoint plotting positions.  Returns NaN when either
    quantile vector is constant (no line to fit).
    """
    a = np.sort(_sample(a, "a"))
    b = np.sort(_sample(b, "b"))
    if a.size < 2 or b.size < 2:
        raise DataError("qq_r_squared needs at least 2 points per sample")
    if a.size == b.size:
        qa, qb = a, b
    else:
        m = min(a.size, b.size)
        levels = (np.arange(m) + 0.5) / m
        qa = _linear_quantiles(a, levels)
        qb = _linear_quantiles(b, levels)
    var_a = float(np.var(qa))
    var_b = float(np.var(qb))
    if var_a <= 0.0 or var_b <= 0.0:
        return float("nan")
    cov = float(np.mean((qa - qa.mean()) * (qb - qb.mean())))
    slope = cov / var_a
    intercept = float(qb.mean()) - slope * float(qa.mean())
    residual = qb - (slope * qa + intercept)
    return 1.0 - float(np.sum(residual**2)) / (qb.size * var_b)


def _linear_quantiles(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Quantiles at ``levels`` of the sorted sample ``x`` by numpy's "linear"
    rule, in ``np.quantile``'s operation order, so with its bits (a zero's
    sign aside: np.quantile partitions a copy, which may reorder -0.0 and 0.0).

    The virtual index (n - 1) q falls between ``prev`` and ``prev + 1``; at or
    past the last index both read the last value.  The lerp starts from the
    nearer end, as numpy's ``_lerp`` does.
    """
    virtual = (x.size - 1) * levels
    prev = np.floor(virtual)
    nxt = prev + 1
    top = virtual >= x.size - 1
    prev[top] = -1
    nxt[top] = -1
    gamma = virtual - prev
    lo = x[prev.astype(np.intp)]
    hi = x[nxt.astype(np.intp)]
    d = hi - lo
    return np.where(gamma >= 0.5, hi - d * (1 - gamma), lo + d * gamma)


def compare_condition(real_returns, generated_returns) -> MetricRow:
    """One summary row: pooled generated returns against pooled real ones."""
    real = _pool(real_returns, "real_returns")
    gen = _pool(generated_returns, "generated_returns")
    if real.size < 2 or gen.size < 2:
        raise DataError("need at least 2 pooled returns per side")
    stat, p_value = ks_two_sample(real, gen)
    return MetricRow(
        mean_diff=abs(float(gen.mean()) - float(real.mean())),
        vol_diff=abs(annualized_volatility(gen) - annualized_volatility(real)),
        kurt_diff=abs(kurtosis(gen) - kurtosis(real)),
        ks_stat=stat,
        ks_pvalue=p_value,
        wasserstein=wasserstein1(real, gen),
        qq_r2=qq_r_squared(real, gen),
    )


def _pool(returns, name: str) -> np.ndarray:
    if isinstance(returns, (list, tuple)):
        if not returns:
            raise DataError(f"{name} is empty")
        parts = [np.asarray(part, dtype=np.float64).ravel() for part in returns]
        return _sample(np.concatenate(parts), name)
    return _sample(returns, name)


def aggregate_report(rows) -> ValidationReport:
    rows = tuple(rows)
    if not rows:
        raise DataError("no condition rows to aggregate")
    return ValidationReport(rows=rows)


def write_table_csv(path, report: ValidationReport) -> None:
    """Summary CSV with one metric,mean,std row per metric."""
    write_csv(path, TABLE_CSV_HEADER.split(","),
              ([m, repr(report.mean(m)), repr(report.std(m))] for m in METRICS))


def write_conditions_csv(path, report: ValidationReport) -> None:
    """Per-condition CSV: each row's index, then its seven metrics (``repr()``)."""
    write_csv(path, CONDITIONS_CSV_HEADER.split(","),
              ([i] + [repr(getattr(row, m)) for m in METRICS]
               for i, row in enumerate(report.rows)))
