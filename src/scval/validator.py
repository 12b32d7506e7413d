"""Label-free validation of predicted (H, D) pairs.

A surrogate that predicts both the Hamiltonian and the density hands us a
free consistency check: at a true fixed point H D S - S D H vanishes, so
its magnitude on a *predicted* pair (the "self" residual here) bounds how
far the pair is from self-consistency without touching any labels.

The check has one structural blind spot: a density built by diagonalizing
the predicted Hamiltonian commutes with it by construction, so the self
residual is ~0 no matter how wrong that Hamiltonian is.  The residual is
only meaningful when H and D are predicted independently; the full report
therefore also carries the strict residual (Hamiltonian rebuilt from the
predicted density through the model functional) and cross residuals that
pair predicted with labeled matrices.

Every check works on a stack: a :class:`Prediction` may hold B pairs on
one geometry as (B, n, n) arrays, and :func:`full_report` scores them in
one pass over that geometry's :class:`model.Context`, so the per-record
cost is a few batched numpy calls rather than dozens of small ones.  A
single pair is a stack of one and goes through the same arithmetic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import matcore, model
from .errors import FileFormatError

__all__ = [
    "Prediction",
    "DiisReport",
    "REPORT_COLUMNS",
    "matrix_mae",
    "self_diis",
    "self_report",
    "full_report",
    "self_diis_position_gradient",
    "scf_predictor",
    "write_reports_csv",
    "read_reports_csv",
]


@dataclass
class Prediction:
    """Predicted Hamiltonian/density pair plus a provenance tag.

    ``h_pred`` and ``d_pred`` are one (n, n) pair or a (B, n, n) stack of
    B pairs from one source, each matrix checked for symmetry on its own.
    Canonical sources are "oracle-noise", "kernel" and "external-file".
    """

    h_pred: np.ndarray
    d_pred: np.ndarray
    source: str = "external-file"

    def __post_init__(self):
        self.h_pred = matcore.validate_symmetric(self.h_pred, "h_pred")
        self.d_pred = matcore.validate_symmetric(self.d_pred, "d_pred")
        if self.h_pred.shape != self.d_pred.shape:
            raise matcore.DimensionMismatch(
                f"h_pred {self.h_pred.shape} and d_pred {self.d_pred.shape} differ"
            )


@dataclass
class DiisReport:
    """Per-system residual and error summary.

    self_diis needs nothing but the prediction and the overlap.
    strict_diis is the residual with the Hamiltonian rebuilt from the
    predicted density via the model functional, i.e. the full
    self-consistency criterion that self_diis approximates.  The
    remaining fields compare against a labeled solve and stay None when
    no label is supplied.
    """

    system: str = ""
    source: str = ""
    self_diis: float = float("nan")
    strict_diis: Optional[float] = None
    mixed_hd: Optional[float] = None
    mixed_dh: Optional[float] = None
    mae_h: Optional[float] = None
    mae_d: Optional[float] = None
    d_e_total: Optional[float] = None
    d_gap: Optional[float] = None


REPORT_COLUMNS = tuple(f.name for f in fields(DiisReport))


def matrix_mae(a, b):
    """Mean |a_ij - b_ij|; one value per matrix when ``a`` is a stack."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-2:] != b.shape[-2:]:
        raise matcore.DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return np.abs(a - b).mean(axis=(-2, -1))


def self_diis(pred: Prediction, s, norm: str = "frobenius"):
    """Magnitude of H_pred D_pred S - S D_pred H_pred, one per pair of a stack."""
    e = matcore.commutator_error(pred.h_pred, pred.d_pred, s)
    return matcore.error_magnitude(e, norm)


def self_report(
    pred: Prediction, s, norm: str = "frobenius", system: str = ""
) -> DiisReport:
    """Label-free report: only the self residual is filled in."""
    return DiisReport(
        system=str(system), source=pred.source, self_diis=self_diis(pred, s, norm)
    )


def full_report(
    pred: Prediction,
    label: model.ScfSolution,
    ctx: model.Context,
    norm: str = "frobenius",
    system="",
):
    """Compare predictions against a labeled solve on the same geometry.

    ``ctx`` is the :class:`model.Context` of that geometry.  ``pred``
    holds one (n, n) pair, scored into one :class:`DiisReport` named
    ``system``, or a (B, n, n) stack of pairs, scored in one pass into
    a list of B reports named by the B strings of ``system``.  One pair
    is a stack of one, so both give the same numbers.
    """
    stacked = pred.h_pred.ndim == 3
    systems = list(system) if stacked else [system]
    n = pred.h_pred.shape[-1]
    h = pred.h_pred.reshape(-1, n, n)
    d = pred.d_pred.reshape(-1, n, n)
    if len(systems) != len(h):
        raise ValueError(f"{len(systems)} system names for {len(h)} predictions")
    mag = partial(matcore.error_magnitude, norm=norm)
    _, h_of_d, e_total = ctx.response(d)
    values = {
        "self_diis": mag(matcore.commutator_error(h, d, ctx.s)),
        "strict_diis": mag(matcore.commutator_error(h_of_d, d, ctx.s)),
        "mixed_hd": mag(matcore.commutator_error(label.hamiltonian, d, ctx.s)),
        "mixed_dh": mag(matcore.commutator_error(h, label.density, ctx.s)),
        "mae_h": matrix_mae(h, label.hamiltonian),
        "mae_d": matrix_mae(d, label.density),
        "d_e_total": np.abs(e_total - label.e_total),
        "d_gap": np.abs(
            model.frontier_gap(ctx.orbitals(h)[0], ctx.g.n_electrons) - label.gap
        ),
    }
    reports = [
        DiisReport(system=str(name), source=pred.source,
                   **{k: float(v[b]) for k, v in values.items()})
        for b, name in enumerate(systems)
    ]
    return reports if stacked else reports[0]


def self_diis_position_gradient(
    g: model.Geometry,
    p: model.ModelParams,
    predictor: Callable[[model.Geometry], Prediction],
    step: float = 1e-4,
    norm: str = "frobenius",
) -> np.ndarray:
    """Central-difference d(self_diis)/d(position), shape (n_atoms, 3).

    Large entries flag directions in which the predictor's internal
    consistency degrades fastest; evaluations are serial, so any
    stateful predictor is safe to use.
    """

    def value(positions):
        gp = g.with_positions(positions)
        return self_diis(predictor(gp), model.build_overlap(gp, p), norm)

    grad = np.zeros((g.n_atoms, 3))
    for i in range(g.n_atoms):
        for a in range(3):
            plus = g.positions.copy()
            plus[i, a] += step
            minus = g.positions.copy()
            minus[i, a] -= step
            grad[i, a] = (value(plus) - value(minus)) / (2.0 * step)
    return grad


def scf_predictor(p: model.ModelParams, cfg=None) -> Callable:
    """Predictor that actually solves SCF; the zero-error reference."""
    from . import scf as _scf

    def predict(g: model.Geometry) -> Prediction:
        sol = _scf.scf_solve(g, p, cfg)
        return Prediction(sol.hamiltonian, sol.density, source="exact")

    return predict


# ---------------------------------------------------------------------------
# Disk formats.


def _fmt_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_reports_csv(path, reports) -> None:
    """Fixed column order, one row per system; label-free fields left empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for rep in reports:
            writer.writerow([_fmt_field(getattr(rep, c)) for c in REPORT_COLUMNS])


def read_reports_csv(path) -> list:
    reports = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(REPORT_COLUMNS) - set(reader.fieldnames):
            raise FileFormatError(f"{path}: missing report columns")
        for row in reader:
            # DictReader gives a short row None values, a long one a None key.
            if None in row or None in row.values():
                raise FileFormatError(f"{path}:{reader.line_num}: ragged row")
            try:
                kwargs = {c: float(row[c]) if row[c] != "" else None
                          for c in REPORT_COLUMNS[2:]}
            except ValueError as exc:
                raise FileFormatError(f"{path}:{reader.line_num}: {exc}")
            if kwargs["self_diis"] is None:
                kwargs["self_diis"] = float("nan")
            kwargs.update(system=row["system"], source=row["source"])
            reports.append(DiisReport(**kwargs))
    return reports
