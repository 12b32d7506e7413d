"""Binning, regression and CSV emission for validation reports."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scval import stats
from scval.errors import DegenerateInput, InsufficientData
from scval.validator import REPORT_COLUMNS, ReportTable


def table(n, **columns):
    """An n-row report table; numeric columns not given are NaN."""
    names = columns.pop("system", [str(i) for i in range(n)])
    source = columns.pop("source", [""] * n)
    return ReportTable(names, source, **{
        c: np.full(n, np.nan) if c not in columns else columns[c]
        for c in REPORT_COLUMNS[2:]
    })


def take(reports, rows):
    """The given rows of a report table, in the given order."""
    return ReportTable(*(
        [getattr(reports, c)[i] for i in rows] if c in ("system", "source")
        else getattr(reports, c)[rows]
        for c in REPORT_COLUMNS
    ))


def synthetic_reports(n=1200, seed=42):
    """Reports whose labeled errors scale linearly with the self residual."""
    rng = np.random.default_rng(seed)
    sig = 10 ** rng.uniform(-4, -2, n)
    columns = {c: np.empty(n) for c in REPORT_COLUMNS[2:]}
    for i in range(n):
        x = sig[i] * abs(1 + 0.05 * rng.standard_normal())
        columns["self_diis"][i] = x
        columns["strict_diis"][i] = 2.0 * x * (1 + 0.1 * rng.standard_normal())
        columns["mixed_hd"][i] = x
        columns["mixed_dh"][i] = x
        columns["mae_h"][i] = 0.5 * x * (1 + 0.2 * rng.standard_normal())
        columns["mae_d"][i] = 0.1 * x
        columns["d_e_total"][i] = 3.0 * x * (1 + 0.3 * rng.standard_normal())
        columns["d_gap"][i] = x * (1 + 0.5 * rng.standard_normal())
    return table(n, system=[f"{i:04d}" for i in range(n)],
                 source=["synthetic"] * n, **columns)


# --- bin_records -----------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["equal_width", "equal_count"])
def test_linear_target_halves_to_bin_means(scheme):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, 400)
    bins_y = stats.bin_records(x, 2.0 * x, n_bins=8, scheme=scheme)
    bins_x = stats.bin_records(x, x, n_bins=8, scheme=scheme)
    np.testing.assert_allclose(bins_y.means, 2.0 * bins_x.means, rtol=1e-14)


def test_constant_target_gives_zero_spread():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, 200)
    bins = stats.bin_records(x, np.full(200, 3.5), n_bins=10)
    np.testing.assert_array_equal(bins.means, np.full(10, 3.5))
    np.testing.assert_array_equal(bins.stds, np.zeros(10))
    assert bins.counts.sum() == 200


def test_equal_count_splits_evenly():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(10000)
    bins = stats.bin_records(x, 2.0 * x, n_bins=20, scheme="equal_count")
    assert bins.counts.tolist() == [500] * 20


def test_bin_edges_ascend_and_centers_interleave():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, 300)
    bins = stats.bin_records(x, x, n_bins=12, scheme="equal_width")
    assert np.all(np.diff(bins.edges) > 0)
    assert np.all(bins.centers > bins.edges[:-1])
    assert np.all(bins.centers < bins.edges[1:])


def test_bin_records_validation():
    x = np.arange(5.0)
    with pytest.raises(InsufficientData):
        stats.bin_records(x, x, n_bins=10)
    with pytest.raises(ValueError):
        stats.bin_records(x, x[:3])
    with pytest.raises(ValueError):
        stats.bin_records(x, x, n_bins=0)
    with pytest.raises(ValueError):
        stats.bin_records(x, x, n_bins=2, scheme="kmeans")


def test_degenerate_condition_collapses_to_one_bin():
    x = np.full(50, 1.0)
    bins = stats.bin_records(x, np.arange(50.0), n_bins=5)
    assert bins.counts.tolist() == [50]


# --- linfit ----------------------------------------------------------------------


def test_linfit_exact_line():
    x = np.linspace(0.0, 5.0, 20)
    fit = stats.linfit(x, 3.0 * x + 1.0)
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 20


def test_linfit_three_point_identity():
    fit = stats.linfit([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    assert fit.slope == pytest.approx(1.0, abs=1e-15)
    assert fit.intercept == pytest.approx(0.0, abs=1e-15)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-15)


def test_independent_noise_has_no_correlation():
    rng = np.random.default_rng(3)
    fit = stats.linfit(rng.uniform(0, 1, 1000), rng.standard_normal(1000))
    assert fit.r_squared < 0.05


def test_constant_target_fits_perfectly():
    fit = stats.linfit([0.0, 1.0, 2.0, 3.0], [4.0, 4.0, 4.0, 4.0])
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_identical_condition_is_degenerate():
    with pytest.raises(DegenerateInput):
        stats.linfit([2.0, 2.0, 2.0], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0, 2.0, 3.0], [1e300, -1e300, 1e300, 0.0]),   # SS_tot overflows
    ([0.0, 1e300, -1e300, 1.0], [0.0, 1.0, 2.0, 3.0]),     # S_xx overflows
    ([0.0, 1.0, 2.0], [1.7e308, 1.7e308, 1.7e308]),        # the mean overflows
])
def test_linfit_rejects_overflowing_sums(x, y):
    # Finite values whose fit sums overflow are not fit; no warning escapes.
    with pytest.raises(InsufficientData, match="overflow"):
        stats.linfit(x, y)


def test_overflowing_target_rejected_by_correlation_report():
    reports = synthetic_reports(200)
    reports.mae_h[[3, 50, 120]] = 1e300
    with pytest.raises(InsufficientData, match="overflow"):
        stats.correlation_report(reports, targets=("strict_diis", "mae"))


def test_linfit_needs_three_points():
    with pytest.raises(InsufficientData):
        stats.linfit([0.0, 1.0], [0.0, 1.0])


def test_slope_recovery_within_three_standard_errors():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, 2000)
    y = 2.0 * x + 0.1 * rng.standard_normal(2000)
    fit = stats.linfit(x, y)
    resid = y - fit.predict(x)
    sxx = ((x - x.mean()) ** 2).sum()
    se = math.sqrt((resid**2).sum() / (len(x) - 2) / sxx)
    assert abs(fit.slope - 2.0) < 3.0 * se


def test_r_squared_stays_in_unit_interval():
    rng = np.random.default_rng(8)
    for _ in range(20):
        fit = stats.linfit(rng.uniform(0, 1, 30), rng.standard_normal(30))
        assert 0.0 <= fit.r_squared <= 1.0


# --- correlation_report ----------------------------------------------------------


def test_linear_reports_regress_cleanly():
    res = stats.correlation_report(synthetic_reports())
    assert set(res) == set(stats.DEFAULT_TARGETS)
    for entry in res.values():
        assert entry.mean_fit.r_squared >= 0.95
        assert entry.std_fit.r_squared >= 0.9
        assert entry.bins.counts.sum() == 1200
    # Errors were generated at twice the condition value.
    assert res["strict_diis"].mean_fit.slope == pytest.approx(2.0, rel=0.05)


def test_identical_reports_rejected():
    ones = np.ones(100)
    reports = table(100, self_diis=ones, strict_diis=ones, mae_h=ones,
                    mae_d=ones, d_e_total=ones, d_gap=ones)
    with pytest.raises(InsufficientData):
        stats.correlation_report(reports)


def test_missing_target_field_rejected():
    reports = table(200, self_diis=np.arange(200.0),
                    strict_diis=np.arange(200.0))
    with pytest.raises(InsufficientData):
        stats.correlation_report(reports, targets=("d_gap",))
    # but the populated field alone is fine
    res = stats.correlation_report(reports, targets=("strict_diis",))
    assert res["strict_diis"].mean_fit.r_squared == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["self_diis", "mae_h"])
def test_non_finite_column_rejected(column, bad):
    # One rule for condition and target alike: a column holding a missing
    # or non-finite value is not binned, and the error names it and counts.
    reports = synthetic_reports(200)
    getattr(reports, column)[[3, 50, 120]] = bad
    with pytest.raises(InsufficientData, match=f"3 of 200 '{column}' values"):
        stats.correlation_report(reports, targets=("strict_diis", "mae"))


def test_unknown_condition_rejected():
    with pytest.raises(ValueError):
        stats.correlation_report(synthetic_reports(100), condition="vibes")
    with pytest.raises(InsufficientData):
        stats.correlation_report([])


def test_shuffled_reports_emit_identical_csv(tmp_path):
    reports = synthetic_reports()
    rng = np.random.default_rng(9)
    shuffled = take(reports, rng.permutation(len(reports)))
    paths = []
    for name, batch in (("a", reports), ("b", shuffled)):
        res = stats.correlation_report(batch)
        base = tmp_path / name
        base.mkdir()
        stats.write_summary_csv(base / "summary.csv", res, "self_diis")
        stats.write_binned_csv(base / "binned.csv", res["strict_diis"].bins)
        xs = stats.series(batch, "self_diis")
        ys = stats.series(batch, "strict_diis")
        stats.write_plot_data_csv(base / "plot.csv", xs, ys,
                                  res["strict_diis"])
        paths.append(base)
    for fname in ("summary.csv", "binned.csv", "plot.csv"):
        assert (paths[0] / fname).read_bytes() == (paths[1] / fname).read_bytes()


def test_binning_schemes_agree_on_r_squared():
    reports = synthetic_reports()
    by_count = stats.correlation_report(reports, scheme="equal_count")
    by_width = stats.correlation_report(reports, scheme="equal_width")
    for target in stats.DEFAULT_TARGETS:
        gap = abs(
            by_count[target].mean_fit.r_squared
            - by_width[target].mean_fit.r_squared
        )
        assert gap < 0.1


def test_raw_points_fit_uses_every_record():
    reports = synthetic_reports(400)
    binned = stats.correlation_report(reports, targets=("strict_diis",))
    raw = stats.correlation_report(reports, targets=("strict_diis",),
                                   raw_points=True)
    assert raw["strict_diis"].mean_fit.n_points == 400
    assert binned["strict_diis"].mean_fit.n_points < 400
    # Both see the same underlying slope.
    assert raw["strict_diis"].mean_fit.slope == pytest.approx(
        binned["strict_diis"].mean_fit.slope, rel=0.2
    )


def test_min_count_excludes_thin_bins():
    reports = synthetic_reports(100)
    with pytest.raises(InsufficientData):
        stats.correlation_report(reports, targets=("strict_diis",),
                                 n_bins=10, min_count=30)


def test_series_aliases():
    reports = synthetic_reports(50)
    np.testing.assert_array_equal(
        stats.series(reports, "mae"),
        reports.mae_h,
    )
    with pytest.raises(ValueError):
        stats.series(reports, "nope")


# --- CSV formats -----------------------------------------------------------------


def test_binned_csv_schema(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, 100)
    bins = stats.bin_records(x, 2 * x, n_bins=5)
    path = tmp_path / "binned.csv"
    stats.write_binned_csv(path, bins)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["center", "count", "mean", "std"]
    assert len(rows) == 6
    for row, center, count in zip(rows[1:], bins.centers, bins.counts):
        assert float(row[0]) == center
        assert int(row[1]) == count


def test_summary_csv_schema(tmp_path):
    res = stats.correlation_report(synthetic_reports(400))
    path = tmp_path / "summary.csv"
    stats.write_summary_csv(path, res, "self_diis")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["condition", "target", "statistic", "slope",
                       "intercept", "r_squared", "n_points"]
    assert len(rows) == 1 + 2 * len(stats.DEFAULT_TARGETS)
    assert {row[0] for row in rows[1:]} == {"self_diis"}
    assert {row[2] for row in rows[1:]} == {"mean", "std"}
    for row in rows[1:]:
        assert 0.0 <= float(row[5]) <= 1.0


def test_plot_data_csv_schema(tmp_path):
    reports = synthetic_reports(300)
    res = stats.correlation_report(reports, targets=("strict_diis",))
    xs = stats.series(reports, "self_diis")
    ys = stats.series(reports, "strict_diis")
    path = tmp_path / "plot.csv"
    stats.write_plot_data_csv(path, xs, ys, res["strict_diis"])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "fit_mean", "fit_std", "band_lo", "band_hi"]
    assert len(rows) == 301
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.all(np.diff(data[:, 0]) >= 0)  # sorted by x
    np.testing.assert_allclose(data[:, 4], data[:, 2] - 3 * data[:, 3],
                               atol=1e-12)
    np.testing.assert_allclose(data[:, 5], data[:, 2] + 3 * data[:, 3],
                               atol=1e-12)
    fit = res["strict_diis"].mean_fit
    np.testing.assert_allclose(data[:, 2], fit.predict(data[:, 0]), atol=1e-12)


def row_loop_plot_data_csv(path, xs, ys, entry):
    """Reference writer: one formatted row per record, in (x, y) order."""
    order = np.lexsort((ys, xs))
    mean_line = entry.mean_fit.predict(xs)
    sigma = np.maximum(entry.std_fit.predict(xs), 0.0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "fit_mean", "fit_std", "band_lo", "band_hi"])
        for i in order:
            lo, hi = mean_line[i] - 3.0 * sigma[i], mean_line[i] + 3.0 * sigma[i]
            writer.writerow([f"{v:.17g}" for v in (xs[i], ys[i], mean_line[i],
                                                   sigma[i], lo, hi)])


_plot_floats = st.one_of(
    st.floats(-1e100, 1e100),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-300]),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    points=st.lists(st.tuples(_plot_floats, _plot_floats), min_size=1,
                    max_size=40),
    fits=st.lists(_plot_floats, min_size=4, max_size=4),
)
def test_plot_data_csv_matches_row_oracle(tmp_path_factory, points, fits):
    base = tmp_path_factory.mktemp("plot")
    points = points * (1 + 300 // len(points))  # span several row blocks
    xs, ys = (np.array(v) for v in zip(*points))
    entry = stats.CorrelationEntry(
        mean_fit=stats.RegressionResult(fits[0], fits[1], 0.5, len(xs)),
        std_fit=stats.RegressionResult(fits[2], fits[3], 0.5, len(xs)),
        bins=None,
    )
    stats.write_plot_data_csv(base / "columns.csv", xs, ys, entry)
    row_loop_plot_data_csv(base / "rows.csv", xs, ys, entry)
    assert (base / "columns.csv").read_bytes() == (base / "rows.csv").read_bytes()
