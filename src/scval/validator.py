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

Every check works on a stack: a :class:`Prediction` may hold B pairs as
(B, n, n) arrays, each row on its own geometry and label, and
:func:`full_report` scores them in one pass over a :class:`model.Context`
with one row per record (or one geometry shared by all), so the
per-record cost is a few batched numpy calls rather than dozens of small
ones.  A single pair is a stack of one and goes through the same
arithmetic.  The reports stay columns (a :class:`ReportTable`) through
``reports.csv``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable

import numpy as np

from . import matcore, model
from .errors import FileFormatError

__all__ = [
    "Prediction",
    "ReportTable",
    "REPORT_COLUMNS",
    "matrix_mae",
    "self_diis",
    "full_report",
    "self_diis_position_gradient",
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
class ReportTable:
    """Validation reports of B records as columns; row b is record b.

    ``system`` and ``source`` are lists of B strings; every other field
    is a float64 (B,) array.  self_diis needs nothing but the prediction
    and the overlap.  strict_diis is the residual with the Hamiltonian
    rebuilt from the predicted density via the model functional, i.e. the
    full self-consistency criterion that self_diis approximates.  The
    remaining fields compare against a labeled solve.  A missing value is
    NaN.
    """

    system: list
    source: list
    self_diis: np.ndarray
    strict_diis: np.ndarray
    mixed_hd: np.ndarray
    mixed_dh: np.ndarray
    mae_h: np.ndarray
    mae_d: np.ndarray
    d_e_total: np.ndarray
    d_gap: np.ndarray

    def __len__(self) -> int:
        return len(self.system)

    @classmethod
    def concat(cls, tables) -> "ReportTable":
        """The rows of ``tables``, in order, as one table."""
        tables = list(tables)
        return cls(
            [s for t in tables for s in t.system],
            [s for t in tables for s in t.source],
            *(np.concatenate([getattr(t, name) for t in tables])
              for name in _NUMERIC_COLUMNS),
        )


REPORT_COLUMNS = tuple(f.name for f in fields(ReportTable))
_NUMERIC_COLUMNS = REPORT_COLUMNS[2:]
_ROWS_PER_WRITE = 256


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


def full_report(
    pred: Prediction,
    label: model.ScfSolution,
    ctx: model.Context,
    norm: str = "frobenius",
    system="",
):
    """Compare predictions against labeled solves on their geometries.

    ``pred`` holds one (n, n) pair, scored into a one-row
    :class:`ReportTable` named ``system``, or a (B, n, n) stack of pairs,
    scored in one pass into a B-row table named by the B strings of
    ``system``.  Row b sits on frame b of ``ctx``, a :class:`model.Context`
    of B geometries (``Context.take`` of a stack), and is compared with
    row b of ``label``, whose matrices are (B, n, n) and scalars (B,)
    (``Dataset.label`` of an index array).  A context of one geometry or
    a label of one solve is shared by every row.  Each row gets the bits
    of its own one-row report on its own geometry.
    """
    systems = list(system) if pred.h_pred.ndim == 3 else [system]
    n = pred.h_pred.shape[-1]
    h = pred.h_pred.reshape(-1, n, n)
    d = pred.d_pred.reshape(-1, n, n)
    if len(systems) != len(h):
        raise ValueError(f"{len(systems)} system names for {len(h)} predictions")
    mag = partial(matcore.error_magnitude, norm=norm)
    _, h_of_d, e_total = ctx.response(d)
    return ReportTable(
        system=[str(name) for name in systems],
        source=[pred.source] * len(h),
        self_diis=mag(matcore.commutator_error(h, d, ctx.s)),
        strict_diis=mag(matcore.commutator_error(h_of_d, d, ctx.s)),
        mixed_hd=mag(matcore.commutator_error(label.hamiltonian, d, ctx.s)),
        mixed_dh=mag(matcore.commutator_error(h, label.density, ctx.s)),
        mae_h=matrix_mae(h, label.hamiltonian),
        mae_d=matrix_mae(d, label.density),
        d_e_total=np.abs(e_total - label.e_total),
        d_gap=np.abs(
            model.frontier_gap(ctx.orbitals(h)[0], ctx.g.n_electrons) - label.gap
        ),
    )


def self_diis_position_gradient(
    g: model.Geometry,
    p: model.ModelParams,
    predictor: Callable[[model.Geometry], Prediction],
    step: float = 1e-4,
    norm: str = "frobenius",
) -> np.ndarray:
    """Central-difference d(self_diis)/d(position), shape (n_atoms, 3).

    Large entries flag directions in which the predictor's internal
    consistency degrades fastest.  The 6 n_atoms displaced frames (each
    coordinate moved by +step, then each by -step) go to ``predictor``
    as one (6 n_atoms, n_atoms, 3) stack, so it must map a stack of
    frames to a stacked :class:`Prediction`, row b predicted for frame b;
    their overlaps are built in one pass as well.
    """
    if step == 0 or not math.isfinite(step):
        raise ValueError(f"step must be nonzero and finite, got {step!r}")
    n3 = 3 * g.n_atoms
    shifts = step * np.eye(n3).reshape(n3, g.n_atoms, 3)
    frames = g.with_positions(g.positions + np.concatenate([shifts, -shifts]))
    values = self_diis(predictor(frames), model.build_overlap(frames, p), norm)
    return ((values[:n3] - values[n3:]) / (2.0 * step)).reshape(g.n_atoms, 3)


# ---------------------------------------------------------------------------
# Disk formats.


def write_reports_csv(path, table: ReportTable) -> None:
    """Fixed column order, one row per record; NaN is written as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        # Formatting a block of rows at a time bounds the text held at once.
        for start in range(0, len(table), _ROWS_PER_WRITE):
            rows = slice(start, start + _ROWS_PER_WRITE)
            numeric = (getattr(table, c)[rows].tolist() for c in _NUMERIC_COLUMNS)
            writer.writerows(zip(table.system[rows], table.source[rows], *(
                [f"{v:.17g}" if v == v else "" for v in values] for values in numeric
            )))


def read_reports_csv(path) -> ReportTable:
    """The table of a reports CSV; an empty numeric field reads as NaN.

    Malformed input is a FileFormatError naming the path (and the line).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or set(REPORT_COLUMNS) - set(header):
                raise FileFormatError(f"{path}: missing report columns")
            # A name maps to its last position in the header, as in DictReader.
            where = {name: i for i, name in enumerate(header)}
            system, source = [], []
            numeric = [(where[name], []) for name in _NUMERIC_COLUMNS]
            # Rows stream straight into their columns; no row list is held.
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise FileFormatError(f"{path}:{reader.line_num}: ragged row")
                system.append(row[where["system"]])
                source.append(row[where["source"]])
                for i, column in numeric:
                    column.append(float(row[i]) if row[i] else math.nan)
        # UnicodeDecodeError (bytes that are not UTF-8) is a ValueError too.
        except (csv.Error, ValueError) as exc:
            raise FileFormatError(f"{path}:{reader.line_num}: {exc}") from None
    return ReportTable(system, source, *(np.array(column) for _, column in numeric))
