"""Distributional validation of generated paths against held-out data.

All comparisons pool daily log returns per condition into flat samples; the
reported magnitudes are therefore return-scale.  Aggregation over conditions
produces one (mean, std) pair per metric: the summary table this module
writes through ``market_paths.write_csv``, beside one row per condition.

The KS statistic is computed from scratch via pooled ECDFs; only the map
from the statistic to the asymptotic p-value uses scipy's Kolmogorov
survival function.  The p-value is approximate for samples smaller than
about 35 per side.  That map is the only use of scipy in pqlab, so scipy
is imported on the first p-value, not with this module: ``validate`` loads
it, and ``prepare``, ``train``, ``sample`` and ``game`` never do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
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
    # only validate reaches here; importing scipy.special costs every other
    # command about 25 MB and a few hundred ms, so it is loaded on first use
    from scipy.special import kolmogorov

    p_value = float(kolmogorov(np.sqrt(n_eff) * stat))
    return stat, min(1.0, max(0.0, p_value))


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
        qa = np.quantile(a, levels)
        qb = np.quantile(b, levels)
    var_a = float(np.var(qa))
    var_b = float(np.var(qb))
    if var_a <= 0.0 or var_b <= 0.0:
        return float("nan")
    cov = float(np.mean((qa - qa.mean()) * (qb - qb.mean())))
    slope = cov / var_a
    intercept = float(qb.mean()) - slope * float(qa.mean())
    residual = qb - (slope * qa + intercept)
    return 1.0 - float(np.sum(residual**2)) / (qb.size * var_b)


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
