"""Charge-self-consistent tight-binding model on point geometries.

The electronic energy is E(D) = tr(D H0) + 1/2 sum_i U_i (q_i - qref_i)^2
plus a pairwise Born-Mayer repulsion; the effective Hamiltonian is its
exact derivative with respect to the density matrix, which is what makes
the commutator residual in :mod:`scval.matcore` a faithful convergence
criterion for this model.  Its derivative with respect to the positions
at fixed D is analytic too: the density-frozen force and, given H(D) of
a converged solution, the variational one.

A :class:`Geometry` holds one (n, 3) frame or a (B, n, 3) stack of
frames of one species tuple.  :class:`Context` holds what depends only on
the geometry (S, X = S^-1/2, H0, U, q_ref, E_rep), with S, H0 and E_rep
built from one pair-distance array, and its methods are the one
implementation of H(D), E(D) and the forces.  The builders take a frame
or a stack alike: a single geometry goes through the stacked arithmetic,
only without the leading axis, and on a stack row b of every term,
argument and result belongs to frame b.  H(D) depends on D only through
the Mulliken charges q, and affinely; ``Context.hamiltonian_of_charges(q)``
is its one formula.  ``Context.response(d)`` takes the Mulliken charges q
of D once and returns (q, H(D), E(D)), with H(D) from that formula; the
SCF loop and the validator call it once per density, and the SCF loop
builds each input Hamiltonian from mixed charges with the same formula.
``Context.charge_jacobian`` is the exact derivative of the aufbau charges
of H(q) with respect to q, from the orbitals of H(q); the SCF loop's
Newton steps use it.  ``effective_hamiltonian`` and ``energy`` are views
of ``response``.  Build one per geometry, or one per stack of geometries
and index its rows with ``Context.take``, and call its methods.  The
module functions ``effective_hamiltonian`` and ``electronic_energy`` are
one-line calls through a fresh context; no pipeline calls them, but they
stay because ``perfbench/tracing.py`` wraps them by name.

``format_xyz_frame`` is the one extended-XYZ frame writer.  It takes the
species, positions and electron count of a frame as plain values, so a
writer of many frames of one system (a trajectory, a dataset bundle)
builds and checks no :class:`Geometry` per frame.  ``format_config``
writes every ``key = value`` file, and ``read_config`` reads them back.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import matcore
from .errors import FileFormatError, InvalidGeometry

__all__ = [
    "Geometry",
    "ModelParams",
    "ScfSolution",
    "Context",
    "pair_distances",
    "build_overlap",
    "build_h0",
    "mulliken_charges",
    "repulsion_energy",
    "electronic_energy",
    "effective_hamiltonian",
    "frontier_gap",
    "load_geometry",
    "dump_geometry",
    "format_xyz_frame",
    "parse_key_values",
    "format_config",
    "read_config",
    "model_params_from_config",
    "masses_from_config",
]

# Two atoms closer than this (Angstrom) are rejected as a degenerate overlap.
R_MIN = 0.3


@dataclass
class Geometry:
    """Atomic species, Cartesian positions (Angstrom) and electron count.

    ``positions`` is one (n, 3) frame or a (B, n, 3) stack of B frames
    that share the species and the electron count.
    """

    species: tuple
    positions: np.ndarray
    n_electrons: int

    def __post_init__(self):
        self.species = tuple(str(s) for s in self.species)
        self.positions = np.array(self.positions, dtype=float)
        self.n_electrons = int(self.n_electrons)
        frames = self.positions if self.positions.ndim == 3 else self.positions[None]
        fault = _frame_fault(frames, len(self.species), self.n_electrons)
        if fault:
            raise InvalidGeometry(fault[1])

    @property
    def n_atoms(self) -> int:
        return len(self.species)

    def with_positions(self, positions) -> "Geometry":
        return Geometry(self.species, positions, self.n_electrons)


def pair_distances(positions) -> np.ndarray:
    """(..., n, n) interatomic distances of one (n, 3) frame or a stack."""
    diff = positions[..., :, None, :] - positions[..., None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _frame_fault(positions: np.ndarray, n_atoms: int, n_electrons: int):
    """The first geometry rule an (m, n, 3) stack of frames breaks, or None.

    The rules: positions of shape (n_atoms, 3), all finite; an electron
    count in (0, 2 n_atoms]; no two atoms closer than ``R_MIN``.  A fault
    is (index of the first frame that breaks the rule, message).
    """
    if positions.ndim != 3 or positions.shape[1:] != (n_atoms, 3):
        return 0, (f"positions shape {positions.shape[1:]} does not match "
                   f"{n_atoms} species entries")
    bad = ~np.isfinite(positions).all(axis=(1, 2))
    if bad.any():
        return int(bad.argmax()), "positions contain non-finite values"
    if n_electrons <= 0 or n_electrons > 2 * n_atoms:
        return 0, (f"{n_electrons} electrons outside (0, {2 * n_atoms}] "
                   f"for {n_atoms} sites")
    if n_atoms > 1:
        # A distance too large for a float is inf, still far from R_MIN.
        with np.errstate(over="ignore"):
            r = pair_distances(positions)[:, ~np.eye(n_atoms, dtype=bool)]
        closest = r.min(axis=1)
        bad = closest < R_MIN
        if bad.any():
            k = int(bad.argmax())
            return k, (f"atoms closer than r_min={R_MIN} A "
                       f"(closest {closest[k]:.3f} A)")
    return None


def _per_atom(value, species, name) -> np.ndarray:
    """Resolve a scalar or {species: value} mapping ("*" = fallback)."""
    if isinstance(value, Mapping):
        out = np.empty(len(species))
        for i, sp in enumerate(species):
            if sp in value:
                out[i] = float(value[sp])
            elif "*" in value:
                out[i] = float(value["*"])
            else:
                raise KeyError(f"{name} has no value for species {sp!r}")
        return out
    return np.full(len(species), float(value))


SPECIES_FIELDS = ("hubbard_u", "eps0", "q_ref")
_SCALAR_FIELDS = ("t0", "beta", "alpha", "r0", "rep_a", "rep_rho")


@dataclass(frozen=True)
class ModelParams:
    """Model constants; hubbard_u / eps0 / q_ref may be per-species maps."""

    t0: float = 2.5        # eV, hopping prefactor
    beta: float = 2.0      # 1/A, hopping decay
    alpha: float = 0.7     # 1/A^2, overlap decay
    r0: float = 1.4        # A, reference bond length
    hubbard_u: object = 8.0   # eV
    eps0: object = 0.0        # eV, on-site level
    q_ref: object = 1.0       # reference charge
    rep_a: float = 500.0   # eV, repulsion prefactor
    rep_rho: float = 0.25  # A, repulsion range

    def __post_init__(self):
        for name in _SCALAR_FIELDS + SPECIES_FIELDS:
            if not all(math.isfinite(float(v)) for v in self._values(name)):
                raise ValueError(f"{name} must be finite")
        for name in ("t0", "beta", "alpha", "rep_rho"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if any(float(v) < 0 for v in self._values("hubbard_u")):
            raise ValueError("hubbard_u must be non-negative")

    def _values(self, name) -> tuple:
        """The one value of a field, or every value of a per-species map."""
        value = getattr(self, name)
        return tuple(value.values()) if isinstance(value, Mapping) else (value,)

    def hubbard_for(self, species) -> np.ndarray:
        return _per_atom(self.hubbard_u, species, "hubbard_u")

    def eps0_for(self, species) -> np.ndarray:
        return _per_atom(self.eps0, species, "eps0")

    def q_ref_for(self, species) -> np.ndarray:
        return _per_atom(self.q_ref, species, "q_ref")


def _set_diagonal(m: np.ndarray, values) -> np.ndarray:
    """Write ``values`` on the diagonal of each matrix of a C-contiguous stack."""
    m.reshape(*m.shape[:-2], -1)[..., :: m.shape[-1] + 1] = values
    return m


def build_overlap(g: Geometry, p: ModelParams, r=None) -> np.ndarray:
    """Gaussian overlap S_ij = exp(-alpha r_ij^2), unit diagonal.

    One (n, n) matrix per frame of ``g``; ``r`` is its pair distances if
    they are already known.
    """
    r = pair_distances(g.positions) if r is None else r
    return _set_diagonal(np.exp(-p.alpha * r * r), 1.0)


def build_h0(g: Geometry, p: ModelParams, r=None) -> np.ndarray:
    """Bare Hamiltonian: on-site eps0, hopping -t0 exp(-beta (r - r0)).

    One (n, n) matrix per frame of ``g``; ``r`` as in :func:`build_overlap`.
    """
    r = pair_distances(g.positions) if r is None else r
    return _set_diagonal(-p.t0 * np.exp(-p.beta * (r - p.r0)), p.eps0_for(g.species))


def mulliken_charges(d, s) -> np.ndarray:
    """q_i = 1/2 (DS + SD)_ii, one row of charges per density of a stack."""
    d = np.asarray(d, dtype=float)
    s = np.asarray(s, dtype=float)
    return 0.5 * (np.einsum("...ij,...ji->...i", d, s)
                  + np.einsum("...ij,...ji->...i", s, d))


def repulsion_energy(g: Geometry, p: ModelParams, r=None):
    """Born-Mayer sum over the pairs i < j: a float, or one per frame of a stack.

    ``r`` as in :func:`build_overlap`.
    """
    r = pair_distances(g.positions) if r is None else r
    # The pairs i < j in row order; a mask is cheaper than triu_indices.
    upper = ~np.tri(g.n_atoms, dtype=bool)
    terms = p.rep_a * np.exp(-r[..., upper] / p.rep_rho)
    # Each frame's terms are summed as one contiguous row, so a frame of
    # a stack gets the bits it gets alone; a reduction over the last axis
    # of the stack may add in another order.
    sums = [float(row.sum()) for row in np.atleast_2d(terms)]
    return sums[0] if terms.ndim == 1 else np.array(sums)


@dataclass(frozen=True, eq=False)
class Context:
    """The terms of the model that depend only on (geometry, params).

    S, H0, the per-atom U and q_ref arrays and E_rep are each built on
    first use and then kept, as is X = S^-1/2, so a caller that never
    diagonalizes neither pays for X nor meets its LinearDependence.  S,
    H0 and E_rep come from one pair-distance array ``r``.  On a stack of
    geometries every term but U and q_ref (one per atom, shared by every
    frame) has one matrix or value per frame.  Build one per geometry or
    stack and share it between every density on it.
    """

    g: Geometry
    p: ModelParams

    @cached_property
    def r(self) -> np.ndarray:
        return pair_distances(self.g.positions)

    @cached_property
    def s(self) -> np.ndarray:
        return build_overlap(self.g, self.p, self.r)

    @cached_property
    def h0(self) -> np.ndarray:
        return build_h0(self.g, self.p, self.r)

    @cached_property
    def x(self) -> np.ndarray:
        return matcore.loewdin_inverse_sqrt(self.s)

    @cached_property
    def u(self) -> np.ndarray:
        return self.p.hubbard_for(self.g.species)

    @cached_property
    def q_ref(self) -> np.ndarray:
        return self.p.q_ref_for(self.g.species)

    @cached_property
    def e_rep(self):
        return repulsion_energy(self.g, self.p, self.r)

    _FRAME_TERMS = ("s", "h0", "x", "e_rep")

    def take(self, rows) -> "Context":
        """The context of the frames of a stack that ``rows`` indexes.

        Every term is built here, X included, once per frame of this
        stack, and the new context's S, H0, X and E_rep are indexed from
        them rather than rebuilt, so a frame that ``rows`` names many
        times costs one build.  The frames were checked as frames of this
        stack and are not checked again.
        """
        g = copy.copy(self.g)
        g.positions = self.g.positions[rows]
        out = Context(g, self.p)
        for name in self._FRAME_TERMS:
            out.__dict__[name] = getattr(self, name)[rows]
        return out

    def orbitals(self, h) -> tuple:
        """Ascending levels and S-orthonormal orbitals, signs not pinned.

        Like every method below but ``forces``, it takes one matrix or a
        (B, n, n) stack of them and returns one result per matrix; on a
        context of B frames, matrix b belongs to frame b.
        """
        w, v = np.linalg.eigh(matcore.symmetrize(self.x @ h @ self.x))
        return w, self.x @ v

    def charge_jacobian(self, levels, orbs) -> np.ndarray:
        """J = dq/dq_in of the aufbau charges of H(q_in), at the ``orbitals`` pair.

        First-order perturbation theory over occupied-virtual pairs (o, v)
        of the closed-shell filling, with A = S C:
        J = P W P^T diag(U), P_i[o, v] = C_io A_iv + A_io C_iv and
        W = 1/(eps_o - eps_v).  W < 0 and U >= 0, so I - J has
        eigenvalues >= 1.  One (n, n) matrix per pair of a stack.
        """
        n_occ = self.g.n_electrons // 2
        a = self.s @ orbs
        p = (orbs[..., :, :n_occ, None] * a[..., :, None, n_occ:]
             + a[..., :, :n_occ, None] * orbs[..., :, None, n_occ:])
        w = 1.0 / (levels[..., :n_occ, None] - levels[..., None, n_occ:])
        flat = p.shape[:-2] + (-1,)
        pw = (p * w[..., None, :, :]).reshape(flat)
        return (pw @ np.swapaxes(p.reshape(flat), -1, -2)) * self.u

    def response(self, d) -> tuple:
        """(q, H(D), E(D)) of a density or a stack, from one Mulliken pass.

        ``energy`` and ``effective_hamiltonian`` are views of it.
        """
        q, h, e_el = self._charge_terms(d)
        return q, h, e_el + self.e_rep

    def _charge_terms(self, d) -> tuple:
        d = np.asarray(d, dtype=float)
        q = mulliken_charges(d, self.s)
        dq = q - self.q_ref
        band = np.einsum("...ij,...ji->...", d, self.h0)
        e_el = band + 0.5 * (self.u * dq * dq).sum(axis=-1)
        return q, self.hamiltonian_of_charges(q), e_el

    def hamiltonian_of_charges(self, q) -> np.ndarray:
        """H of Mulliken charges: H0 + 1/2 S_ij (U_i dq_i + U_j dq_j).

        dq = q - q_ref, and ``q`` is one row of n charges or a (B, n)
        stack; H(D) is this of q(D).  The reference charges give H0
        exactly.
        """
        udq = self.u * (q - self.q_ref)
        return self.h0 + 0.5 * self.s * (udq[..., :, None] + udq[..., None, :])

    def energy(self, d):
        """Total energy E(D) = tr(D H0) + 1/2 sum U (q - qref)^2 + E_rep."""
        return self.response(d)[2]

    def effective_hamiltonian(self, d) -> np.ndarray:
        """H(D) = dE/dD: H0 plus the charge response 1/2 S_ij (U_i dq_i + U_j dq_j)."""
        return self.response(d)[1]

    def forces(self, d, h=None) -> np.ndarray:
        """-dE/dR (eV/A) of the total energy at the fixed density D.

        Unlike the methods above, it takes only the context of one
        geometry, and one density.  Without ``h`` this is the
        density-frozen force.  With ``h = H(D)`` of a converged
        closed-shell solution it adds the overlap term
        -tr(W dS), W = 1/2 D H D, and so gives the variational force of
        the SCF energy (Elstner et al., PRB 58, 7260 (1998)).  Each pair
        contributes dE/dr_ij (x_i - x_j) / r_ij, with dH0/dr = -beta H0,
        dS/dr = -2 alpha r S and the Born-Mayer repulsion in the same sum.
        """
        g, p, s, h0 = self.g, self.p, self.s, self.h0
        # E depends on D only through its symmetric part.
        d = matcore.symmetrize(np.asarray(d, dtype=float))
        udq = self.u * (mulliken_charges(d, s) - self.q_ref)
        w = 0.5 * d * (udq[:, None] + udq[None, :])
        if h is not None:
            w = w - 0.5 * d @ np.asarray(h, dtype=float) @ d
        diff = g.positions[:, None, :] - g.positions[None, :, :]
        r = self.r.copy()
        # An infinite self-distance zeroes the diagonal of the 1/r terms;
        # the diagonals of S and H0 do not depend on the positions.
        np.fill_diagonal(r, np.inf)
        radial = -2.0 * p.beta * d * h0 - (p.rep_a / p.rep_rho) * np.exp(-r / p.rep_rho)
        de_dr_over_r = radial / r - 4.0 * p.alpha * w * s
        return -(de_dr_over_r[:, :, None] * diff).sum(axis=1)


def electronic_energy(d, g: Geometry, p: ModelParams) -> float:
    """Band plus charge-fluctuation energy, no ion-ion repulsion."""
    return Context(g, p)._charge_terms(d)[2]


def effective_hamiltonian(d, g: Geometry, p: ModelParams) -> np.ndarray:
    return Context(g, p).effective_hamiltonian(d)


@dataclass
class ScfSolution:
    """Converged (or best-effort) self-consistent pair with bookkeeping.

    ``trace`` holds one (iteration, residual, e_total, step) tuple per
    iteration of the solve that produced it, in order; ``step`` says how
    that iteration's input charges were made ("start", "mix" or
    "newton").  ``coeffs`` and ``energies``, the eigenpairs of (H, S), are
    solved on first read; no code in the package reads them.
    """

    hamiltonian: np.ndarray
    density: np.ndarray
    overlap: np.ndarray
    e_total: float
    gap: float
    strict_diis: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)

    @cached_property
    def _eig(self) -> matcore.EigSolution:
        return matcore.gen_eigensolve(self.hamiltonian, self.overlap)

    coeffs = property(lambda self: self._eig.coeffs)
    energies = property(lambda self: self._eig.energies)


def frontier_gap(energies, n_electrons: int):
    """Plain eigenvalue difference between first empty and last filled level.

    ``energies`` is one ascending spectrum or a (B, n) stack of them.
    """
    energies = np.asarray(energies, dtype=float)
    n_occ = n_electrons // 2
    if n_occ >= energies.shape[-1]:
        # [()] makes the gap of one spectrum a scalar, as below.
        return np.zeros(energies.shape[:-1])[()]
    return energies[..., n_occ] - energies[..., n_occ - 1]


# ---------------------------------------------------------------------------
# Extended-XYZ geometries: count line, key=value comment line carrying
# n_electrons, then "species x y z" records.  Positions in Angstrom.


def format_xyz_frame(species, positions, n_electrons, extra=None) -> str:
    """One frame: count line, ``n_electrons`` and ``extra`` as key=value
    comment pairs, then one ``species x y z`` line per atom."""
    pairs = {"n_electrons": n_electrons}
    if extra:
        pairs.update(extra)
    comment = " ".join(f"{k}={_fmt_value(v)}" for k, v in pairs.items())
    lines = [str(len(species)), comment]
    for sp, (x, y, z) in zip(species, positions):
        lines.append(f"{sp} {x:.17g} {y:.17g} {z:.17g}")
    return "\n".join(lines) + "\n"


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "T" if v else "F"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def dump_geometry(path, g: Geometry, extra: Mapping | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(format_xyz_frame(g.species, g.positions, g.n_electrons, extra))


def _parse_comment(line: str) -> dict:
    out = {}
    for token in line.split():
        if "=" not in token:
            continue
        key, value = token.split("=", 1)
        out[key] = value
    return out


def _xyz_records(text: str, path) -> tuple:
    """(frames, coordinates) of an extended-xyz text.

    ``frames`` holds (species, n_electrons, comment dict) of each frame
    and ``coordinates`` the (atoms of all frames, 3) positions in text
    order.  Each atom line is split once, and every coordinate token is
    converted in one pass at the end.  The first fault in text order is
    the one reported.  Only the syntax is checked here; the geometry
    rules are :func:`_frame_fault`'s.
    """
    lines = text.splitlines()
    frames, tokens = [], []
    spans = []  # (first line index, atom count) of each frame read so far

    def fault(message):
        # A non-numeric coordinate above the fault comes first.
        return _bad_coordinate(lines, spans, path) or FileFormatError(message)

    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        count = lines[i].strip()
        if not count.isdecimal():
            raise fault(f"{path}: expected atom count, got {lines[i]!r}")
        n = int(count)
        if len(lines) < i + 2 + n:
            raise fault(f"{path}: truncated frame at line {i + 1}")
        meta = _parse_comment(lines[i + 1])
        if "n_electrons" not in meta:
            raise fault(f"{path}: comment line lacks n_electrons")
        try:
            n_electrons = int(meta["n_electrons"])
        except ValueError:
            raise fault(
                f"{path}:{i + 2}: n_electrons={meta['n_electrons']!r} is not an integer"
            ) from None
        rows = [row.split() for row in lines[i + 2 : i + 2 + n]]
        if rows and min(map(len, rows)) < 4:
            short = next(j for j, parts in enumerate(rows) if len(parts) < 4)
            spans.append((i + 2, short))
            raise fault(f"{path}: bad atom line {lines[i + 2 + short]!r}")
        spans.append((i + 2, n))
        frames.append((tuple(parts[0] for parts in rows), n_electrons, meta))
        tokens += [v for parts in rows for v in parts[1:4]]
        i += 2 + n
    if not frames:
        raise FileFormatError(f"{path}: no frames found")
    try:
        coords = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:
        raise _bad_coordinate(lines, spans, path) from None
    return frames, coords.reshape(-1, 3)


def _bad_coordinate(lines, spans, path):
    """The error of the first non-numeric coordinate in ``spans``, or None."""
    for start, n in spans:
        for lineno, row in enumerate(lines[start : start + n], start=start + 1):
            try:
                for v in row.split()[1:4]:
                    float(v)
            except ValueError:
                return FileFormatError(
                    f"{path}:{lineno}: non-numeric coordinate in {row!r}")
    return None


def parse_xyz_frames(text: str, path="<string>") -> list:
    """All (Geometry, comment-dict) frames in an extended-xyz string."""
    frames, coords = _xyz_records(text, path)
    out, end = [], 0
    for k, (species, n_electrons, meta) in enumerate(frames):
        start, end = end, end + len(species)
        try:
            g = Geometry(species, coords[start:end], n_electrons)
        except InvalidGeometry as exc:
            raise FileFormatError(f"{path}: frame {k}: {exc}") from None
        out.append((g, meta))
    return out


class XyzStack(NamedTuple):
    """The m frames of an extended-XYZ text that holds one system."""

    species: tuple
    n_electrons: int
    positions: np.ndarray  # (m, n, 3)
    comments: list         # m comment-line dicts


def parse_xyz_stack(text: str, path="<string>") -> XyzStack:
    """All frames of an extended-xyz string as one :class:`XyzStack`.

    The frames must be geometries of one system: the same species in the
    same order and the same electron count.  Each rule of
    :class:`Geometry` is checked on the whole stack at once; any fault
    raises ``FileFormatError`` naming the frame.
    """
    frames, coords = _xyz_records(text, path)
    species, n_electrons, _ = frames[0]
    for k, (sp, n_e, _) in enumerate(frames):
        if len(sp) != len(species):
            raise FileFormatError(f"{path}: frames differ in atom count")
        if sp != species or n_e != n_electrons:
            raise FileFormatError(
                f"{path}: frame {k}: species or electron count differs from frame 0"
            )
    positions = coords.reshape(len(frames), len(species), 3)
    fault = _frame_fault(positions, len(species), n_electrons)
    if fault:
        raise FileFormatError(f"{path}: frame {fault[0]}: {fault[1]}")
    return XyzStack(species, n_electrons, positions, [meta for *_, meta in frames])


def read_text(path) -> str:
    """The text of an input file; bytes that are not UTF-8 are a FileFormatError."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def load_geometry(path) -> Geometry:
    return parse_xyz_frames(read_text(path), path=str(path))[0][0]


# ---------------------------------------------------------------------------
# Flat key=value configuration ("key = number" lines, # comments).  Dotted
# keys select config sections (scf.tol) or species overrides (eps0.B).

_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_scalar(text: str):
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def format_config(items) -> str:
    """``key = value`` lines of (key, value) pairs, as :func:`read_config` parses
    them: floats to 17 significant digits, bools as T/F."""
    return "".join(f"{key} = {_fmt_value(value)}\n" for key, value in items)


def parse_key_values(text: str, path="<string>") -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise FileFormatError(f"{path}:{lineno}: empty key or value")
        out[key] = _parse_scalar(value)
    return out


def read_config(path) -> dict:
    return parse_key_values(read_text(path), path=str(path))


def model_params_from_config(cfg: Mapping) -> ModelParams:
    """Assemble ModelParams from a flat config mapping.

    Bare keys set model scalars; ``eps0.B = -2.0`` style keys override a
    single species, with the bare key acting as the fallback.
    """
    kwargs = {}
    for name in _SCALAR_FIELDS:
        if name in cfg:
            kwargs[name] = float(cfg[name])
    for name in SPECIES_FIELDS:
        mapping = _species_map(cfg, name, ModelParams.__dataclass_fields__[name].default)
        kwargs[name] = mapping if len(mapping) > 1 else mapping["*"]
    return ModelParams(**kwargs)


def masses_from_config(cfg: Mapping, species: Sequence[str]) -> np.ndarray:
    """Per-atom masses in amu; ``mass`` and ``mass.X`` keys, default 12.011."""
    return _per_atom(_species_map(cfg, "mass", 12.011), tuple(species), "mass")


def _species_map(cfg: Mapping, name: str, default: float) -> dict:
    """{"*": the ``name`` key or ``default``, X: each ``name.X`` key}, as floats."""
    mapping = {"*": float(cfg.get(name, default))}
    for key, value in cfg.items():
        if key.startswith(name + "."):
            mapping[key.split(".", 1)[1]] = float(value)
    return mapping
