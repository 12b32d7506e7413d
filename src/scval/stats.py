"""Binning and regression of validation reports.

Records are grouped by a condition variable (normally the self residual),
and per-bin means and standard deviations of each target error are fitted
with ordinary least squares.  High R-squared of the mean fit is the
evidence that the label-free residual tracks the labeled errors.  Reports
arrive as the columns of a :class:`validator.ReportTable`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InsufficientData
from .validator import REPORT_COLUMNS

__all__ = [
    "BinnedSeries",
    "RegressionResult",
    "CorrelationEntry",
    "bin_records",
    "linfit",
    "correlation_report",
    "write_binned_csv",
    "write_summary_csv",
    "write_plot_data_csv",
]

DEFAULT_TARGETS = ("strict_diis", "mae", "d_e_total", "d_gap")
_ROWS_PER_WRITE = 256
# A plot-data row as csv.writer would write its six "%.17g" fields: no
# field needs quoting, and "\r\n" is the csv line terminator.
_PLOT_ROW = ",".join(["%.17g"] * 6) + "\r\n"

# Report-field lookup for target names; "mae" means the Hamiltonian MAE.
_TARGET_FIELDS = {c: c for c in REPORT_COLUMNS[2:]} | {"mae": "mae_h"}


@dataclass
class BinnedSeries:
    """Per-bin statistics; counts always sum to the number of records."""

    edges: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    stds: np.ndarray  # unbiased; nan for bins with fewer than 2 records

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


@dataclass
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int

    def predict(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept


@dataclass
class CorrelationEntry:
    mean_fit: RegressionResult
    std_fit: RegressionResult
    bins: BinnedSeries


def bin_records(x, y, n_bins: int = 20, scheme: str = "equal_count") -> BinnedSeries:
    """Group y by x into equal-width or equal-count bins."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    if x.size == 0 or x.size < n_bins:
        raise InsufficientData(f"{x.size} records cannot fill {n_bins} bins")
    # Canonical (x, y) order makes every statistic independent of record
    # order down to the last bit.
    order = np.lexsort((y, x))
    x = x[order]
    y = y[order]
    if scheme == "equal_width":
        edges = np.linspace(x.min(), x.max(), n_bins + 1)
    elif scheme == "equal_count":
        edges = np.quantile(x, np.linspace(0.0, 1.0, n_bins + 1))
    else:
        raise ValueError(f"unknown binning scheme {scheme!r}")
    edges = np.unique(edges)  # collapse ties; degenerate x gives one bin
    if edges.size < 2:
        edges = np.array([edges[0], edges[0]])
        idx = np.zeros(x.size, dtype=int)
        n_eff = 1
    else:
        n_eff = edges.size - 1
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_eff - 1)
    counts = np.zeros(n_eff, dtype=int)
    means = np.full(n_eff, np.nan)
    stds = np.full(n_eff, np.nan)
    # A statistic too large for a float comes out inf, and linfit and
    # the fits' bin filters reject it.
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(n_eff):
            sel = y[idx == b]
            counts[b] = sel.size
            if sel.size:
                means[b] = sel.mean()
            if sel.size >= 2:
                stds[b] = sel.std(ddof=1)
    return BinnedSeries(edges=edges, counts=counts, means=means, stds=stds)


def linfit(x, y) -> RegressionResult:
    """Ordinary least squares with R^2 = 1 - SS_res/SS_tot.

    Values so large that a sum of the fit overflows raise
    InsufficientData, as non-finite values do.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 3:
        raise InsufficientData(f"need at least 3 points, got {n}")
    order = np.lexsort((y, x))  # order-independent sums
    x = x[order]
    y = y[order]
    with np.errstate(over="ignore", invalid="ignore"):
        xm = x.mean()
        ym = y.mean()
        sxx = float(((x - xm) ** 2).sum())
        if sxx == 0.0:
            raise DegenerateInput("condition values are all identical")
        slope = float(((x - xm) * (y - ym)).sum()) / sxx
        intercept = ym - slope * xm
        ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
        ss_tot = float(((y - ym) ** 2).sum())
        y_scale = np.float64(max(1.0, float(np.abs(y).max()))) ** 2
    if not np.isfinite([xm, ym, sxx, slope, intercept, ss_res, ss_tot]).all():
        raise InsufficientData(
            f"least-squares sums of {n} points overflow or are not finite")
    if ss_tot == 0.0:
        # A constant target is fit exactly by the constant line.
        if ss_res > 1e-12 * y_scale * n:
            raise DegenerateInput("zero target variance with nonzero residual")
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
        r2 = min(1.0, max(0.0, r2))
    return RegressionResult(slope=slope, intercept=intercept, r_squared=r2, n_points=n)


def series(reports, name) -> np.ndarray:
    """Report column of a condition/target name; it must be all finite."""
    try:
        field = _TARGET_FIELDS[name]
    except KeyError:
        raise ValueError(f"unknown condition {name!r}") from None
    values = getattr(reports, field)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise InsufficientData(
            f"{bad} of {len(values)} {field!r} values are missing or not finite"
        )
    return values


def correlation_report(
    reports,
    condition: str = "self_diis",
    targets=DEFAULT_TARGETS,
    n_bins: int = 20,
    scheme: str = "equal_count",
    min_count: int = 5,
) -> dict:
    """Per-target (mean fit, std fit, bins) keyed by target name.

    Mean regressions run on bin centers vs bin means; the spread
    regression uses the binned standard deviations.  Bins holding fewer
    than ``min_count`` records are excluded from the fits.
    """
    if not len(reports):
        raise InsufficientData("no reports")
    xs = series(reports, condition)
    out = {}
    for target in targets:
        ys = series(reports, target)
        bins = bin_records(xs, ys, n_bins=n_bins, scheme=scheme)
        centers = bins.centers
        keep = (bins.counts >= min_count) & np.isfinite(bins.means)
        if keep.sum() < 3 or np.unique(centers[keep]).size < 3:
            raise InsufficientData(
                f"{target}: only {int(keep.sum())} usable bins for regression"
            )
        mean_fit = linfit(centers[keep], bins.means[keep])
        keep_std = keep & np.isfinite(bins.stds) & (bins.counts >= 2)
        if keep_std.sum() < 3 or np.unique(centers[keep_std]).size < 3:
            raise InsufficientData(
                f"{target}: only {int(keep_std.sum())} usable bins for spread fit"
            )
        std_fit = linfit(centers[keep_std], bins.stds[keep_std])
        out[target] = CorrelationEntry(mean_fit=mean_fit, std_fit=std_fit, bins=bins)
    return out


# ---------------------------------------------------------------------------
# CSV emission.


def write_binned_csv(path, bins: BinnedSeries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["center", "count", "mean", "std"])
        for c, n, m, s in zip(bins.centers, bins.counts, bins.means, bins.stds):
            writer.writerow([f"{c:.17g}", int(n), f"{m:.17g}", f"{s:.17g}"])


def write_summary_csv(path, results: dict, condition: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["condition", "target", "statistic", "slope", "intercept",
             "r_squared", "n_points"]
        )
        for target, entry in results.items():
            for stat, fit in (("mean", entry.mean_fit), ("std", entry.std_fit)):
                writer.writerow(
                    [
                        condition,
                        target,
                        stat,
                        f"{fit.slope:.17g}",
                        f"{fit.intercept:.17g}",
                        f"{fit.r_squared:.17g}",
                        fit.n_points,
                    ]
                )


def write_plot_data_csv(path, xs, ys, entry: CorrelationEntry) -> None:
    """Raw scatter plus fitted mean line and a 3-sigma band per record."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    order = np.lexsort((ys, xs))
    xs = xs[order]
    ys = ys[order]
    mean_line = entry.mean_fit.predict(xs)
    sigma = np.maximum(entry.std_fit.predict(xs), 0.0)
    columns = (xs, ys, mean_line, sigma, mean_line - 3.0 * sigma,
               mean_line + 3.0 * sigma)
    with open(path, "w", newline="") as fh:
        fh.write("x,y,fit_mean,fit_std,band_lo,band_hi\r\n")
        # Formatting a block of rows at a time bounds the text held at once.
        for start in range(0, len(xs), _ROWS_PER_WRITE):
            rows = slice(start, start + _ROWS_PER_WRITE)
            fh.write("".join(_PLOT_ROW % row
                             for row in zip(*(c[rows].tolist() for c in columns))))
