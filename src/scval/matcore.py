"""Dense symmetric-matrix kernel: orthogonalization, generalized
eigensolve, aufbau filling, and the commutator residual that the whole
validation scheme is built on.

Matrices are plain float64 numpy arrays.  Eigendecompositions delegate to
numpy's LAPACK bindings; everything layered on top is written out here.
The tolerances ``SYMMETRY_TOL``, ``LIN_DEP_TOL`` and ``DEGENERACY_TOL``
are module constants that the functions read directly; no caller sets them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    FermiDegeneracy,
    FileFormatError,
    LinearDependence,
)

__all__ = [
    "EigSolution",
    "symmetrize",
    "validate_symmetric",
    "loewdin_inverse_sqrt",
    "gen_eigensolve",
    "aufbau_occupations",
    "commutator_error",
    "error_magnitude",
    "resolve_norm",
    "read_scvm",
    "write_scvm",
]

# Relative symmetry slack for validated inputs.
SYMMETRY_TOL = 1e-12
# Overlap eigenvalues at or below this are treated as a linearly dependent basis.
LIN_DEP_TOL = 1e-10
# HOMO/LUMO closer than this makes the aufbau filling ambiguous.
DEGENERACY_TOL = 1e-9

# The residual norms: Frobenius, or the mean of |e_ij|.
NORMS = ("frobenius", "mae")


@dataclass
class EigSolution:
    """Eigenvectors (columns) and ascending eigenvalues of H C = S C diag(e)."""

    coeffs: np.ndarray
    energies: np.ndarray


def _as_square(m, name="matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.swapaxes(-1, -2))


def validate_symmetric(m, name="matrix") -> np.ndarray:
    """Check squareness, finiteness and symmetry; return the array.

    ``m`` is one (n, n) matrix or a (B, n, n) stack of them; each
    matrix is held to the slack scaled by its own largest entry.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    if m.size:
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        asym = np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1))
        if np.any(asym > SYMMETRY_TOL * scale):
            raise ValueError(f"{name} is not symmetric")
    return m


def loewdin_inverse_sqrt(s) -> np.ndarray:
    """Symmetric orthogonalizer X = S^(-1/2) of one overlap or a (B, n, n) stack.

    Eigendecomposes each overlap and rebuilds U diag(w^-1/2) U^T.  Any
    overlap eigenvalue at or below ``LIN_DEP_TOL`` means the basis is
    (numerically) linearly dependent and the transform is refused.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim not in (2, 3) or s.shape[-1] != s.shape[-2]:
        raise DimensionMismatch(f"overlap must be square, got shape {s.shape}")
    w, u = np.linalg.eigh(s)
    if w.min() <= LIN_DEP_TOL:
        raise LinearDependence(
            f"overlap eigenvalue {w.min():.3e} <= tolerance {LIN_DEP_TOL:.1e}"
        )
    x = (u * w[..., None, :] ** -0.5) @ u.swapaxes(-1, -2)
    return symmetrize(x)


def _fix_column_signs(c: np.ndarray) -> np.ndarray:
    """First nonzero component of each eigenvector made positive.

    Pins the sign freedom of the eigensolver so repeated runs are
    bit-identical.  Done in place, returns c.
    """
    for k in range(c.shape[1]):
        col = c[:, k]
        thresh = 1e-12 * max(1.0, float(np.abs(col).max()))
        for v in col:
            if abs(v) > thresh:
                if v < 0.0:
                    col *= -1.0
                break
    return c


def gen_eigensolve(h, s) -> EigSolution:
    """Solve H C = S C diag(e) via Loewdin orthogonalization.

    Returns eigenvalues ascending and S-orthonormal eigenvector columns
    with a deterministic sign convention.
    """
    h = _as_square(h, "hamiltonian")
    s = _as_square(s, "overlap")
    if h.shape != s.shape:
        raise DimensionMismatch(
            f"hamiltonian {h.shape} and overlap {s.shape} differ"
        )
    x = loewdin_inverse_sqrt(s)
    w, v = np.linalg.eigh(symmetrize(x @ h @ x))
    return EigSolution(coeffs=_fix_column_signs(x @ v), energies=w)


def aufbau_occupations(energies, n_electrons: int) -> np.ndarray:
    """Closed-shell filling: lowest N_e/2 levels get occupation 2.

    Rejects odd or out-of-range electron counts (DegenerateInput) and a
    HOMO/LUMO gap below ``DEGENERACY_TOL`` (FermiDegeneracy), where the
    filling would be arbitrary.
    """
    energies = np.asarray(energies, dtype=float)
    n = energies.shape[0]
    if n_electrons <= 0 or n_electrons % 2 != 0 or n_electrons > 2 * n:
        raise DegenerateInput(
            f"cannot fill {n_electrons} electrons into {n} closed-shell levels"
        )
    n_occ = n_electrons // 2
    if n_occ < n and energies[n_occ] - energies[n_occ - 1] < DEGENERACY_TOL:
        raise FermiDegeneracy(
            f"frontier gap {energies[n_occ] - energies[n_occ - 1]:.3e} below "
            f"{DEGENERACY_TOL:.1e}"
        )
    occ = np.zeros(n)
    occ[:n_occ] = 2.0
    return occ


def commutator_error(h, d, s) -> np.ndarray:
    """Self-consistency residual e = H D S - S D H.

    Vanishes exactly when (H, D) share eigenvectors in the S metric,
    i.e. at an SCF fixed point; antisymmetric for symmetric inputs.
    Each input is one (n, n) matrix or a (B, n, n) stack; matrices are
    broadcast against stacks, so the result has one residual per record.
    """
    h = np.asarray(h, dtype=float)
    d = np.asarray(d, dtype=float)
    s = np.asarray(s, dtype=float)
    if (any(x.ndim not in (2, 3) or x.shape[-2:] != h.shape[-2:] for x in (h, d, s))
            or len({x.shape for x in (h, d, s) if x.ndim == 3}) > 1):
        raise DimensionMismatch(
            f"shapes differ: H {h.shape}, D {d.shape}, S {s.shape}"
        )
    return h @ d @ s - s @ d @ h


def resolve_norm(norm: str) -> str:
    """``norm`` itself if it is one of ``NORMS``; a ValueError otherwise."""
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")
    return norm


def error_magnitude(e, norm: str = "frobenius"):
    """Collapse a residual matrix to a scalar: Frobenius norm or mean |e_ij|.

    A (B, n, n) stack of residuals gives B scalars.
    """
    e = np.asarray(e, dtype=float)
    if resolve_norm(norm) == "frobenius":
        return np.sqrt((e * e).sum(axis=(-2, -1)))
    return np.abs(e).mean(axis=(-2, -1))


# ---------------------------------------------------------------------------
# .scvm on-disk matrix format: magic "SCVM", u32 version=1, u32 rows, u32
# cols (little endian), then rows*cols float64 little-endian, row-major.

_SCVM_MAGIC = b"SCVM"
_SCVM_VERSION = 1
_SCVM_HEADER = struct.Struct("<4sIII")


def write_scvm(path, m) -> None:
    m = np.ascontiguousarray(np.asarray(m, dtype=float))
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {m.shape}")
    with open(path, "wb") as fh:
        fh.write(_SCVM_HEADER.pack(_SCVM_MAGIC, _SCVM_VERSION, *m.shape))
        fh.write(m.astype("<f8", copy=False).tobytes())


def read_scvm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_SCVM_HEADER.size)
        if len(header) != _SCVM_HEADER.size:
            raise FileFormatError(f"{path}: truncated header")
        magic, version, rows, cols = _SCVM_HEADER.unpack(header)
        if magic != _SCVM_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if version != _SCVM_VERSION:
            raise FileFormatError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = rows * cols * 8
    if len(payload) != expected:
        raise FileFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8").astype(float)
    return data.reshape(rows, cols)
