"""Charge-self-consistent tight-binding model on point geometries.

The electronic energy is E(D) = tr(D H0) + 1/2 sum_i U_i (q_i - qref_i)^2
plus a pairwise Born-Mayer repulsion; the effective Hamiltonian is its
exact derivative with respect to the density matrix, which is what makes
the commutator residual in :mod:`scval.matcore` a faithful convergence
criterion for this model.  Its derivative with respect to the positions
at fixed D is analytic too: :func:`forces` gives the density-frozen force
and, given H(D) of a converged solution, the variational one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import matcore
from .errors import FermiDegeneracy, FileFormatError, InvalidGeometry

__all__ = [
    "Geometry",
    "ModelParams",
    "ScfSolution",
    "pair_distances",
    "build_overlap",
    "build_h0",
    "mulliken_charges",
    "repulsion_energy",
    "electronic_energy",
    "energy",
    "effective_hamiltonian",
    "forces",
    "frontier_gap",
    "observables",
    "load_geometry",
    "dump_geometry",
    "format_xyz_frame",
    "parse_key_values",
    "read_config",
    "model_params_from_config",
    "masses_from_config",
]

# Two atoms closer than this (Angstrom) are rejected as a degenerate overlap.
R_MIN = 0.3

_DEFAULT_MASS = 12.011  # amu


@dataclass
class Geometry:
    """Atomic species, Cartesian positions (Angstrom) and electron count."""

    species: tuple
    positions: np.ndarray
    n_electrons: int

    def __post_init__(self):
        self.species = tuple(str(s) for s in self.species)
        self.positions = np.array(self.positions, dtype=float)
        n = len(self.species)
        if self.positions.shape != (n, 3):
            raise InvalidGeometry(
                f"positions shape {self.positions.shape} does not match "
                f"{n} species entries"
            )
        if not np.all(np.isfinite(self.positions)):
            raise InvalidGeometry("positions contain non-finite values")
        self.n_electrons = int(self.n_electrons)
        if self.n_electrons <= 0 or self.n_electrons > 2 * n:
            raise InvalidGeometry(
                f"{self.n_electrons} electrons outside (0, {2 * n}] for {n} sites"
            )
        if n > 1:
            r = pair_distances(self)
            closest = float(r[~np.eye(n, dtype=bool)].min())
            if closest < R_MIN:
                raise InvalidGeometry(
                    f"atoms closer than r_min={R_MIN} A (closest {closest:.3f} A)"
                )

    @property
    def n_atoms(self) -> int:
        return len(self.species)

    def with_positions(self, positions) -> "Geometry":
        return Geometry(self.species, positions, self.n_electrons)


def pair_distances(g: Geometry) -> np.ndarray:
    diff = g.positions[:, None, :] - g.positions[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


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
        for name in ("t0", "beta", "alpha", "rep_rho"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        u = self.hubbard_u
        values = u.values() if isinstance(u, Mapping) else (u,)
        if any(float(v) < 0 for v in values):
            raise ValueError("hubbard_u must be non-negative")

    def hubbard_for(self, species) -> np.ndarray:
        return _per_atom(self.hubbard_u, species, "hubbard_u")

    def eps0_for(self, species) -> np.ndarray:
        return _per_atom(self.eps0, species, "eps0")

    def q_ref_for(self, species) -> np.ndarray:
        return _per_atom(self.q_ref, species, "q_ref")


def build_overlap(g: Geometry, p: ModelParams) -> np.ndarray:
    """Gaussian overlap S_ij = exp(-alpha r_ij^2), unit diagonal."""
    r = pair_distances(g)
    s = np.exp(-p.alpha * r * r)
    np.fill_diagonal(s, 1.0)
    return s


def build_h0(g: Geometry, p: ModelParams) -> np.ndarray:
    """Bare Hamiltonian: on-site eps0, hopping -t0 exp(-beta (r - r0))."""
    r = pair_distances(g)
    h0 = -p.t0 * np.exp(-p.beta * (r - p.r0))
    h0[np.diag_indices_from(h0)] = p.eps0_for(g.species)
    return h0


def mulliken_charges(d, s) -> np.ndarray:
    """q_i = 1/2 (DS + SD)_ii."""
    d = np.asarray(d, dtype=float)
    s = np.asarray(s, dtype=float)
    return 0.5 * (np.einsum("ij,ji->i", d, s) + np.einsum("ij,ji->i", s, d))


def repulsion_energy(g: Geometry, p: ModelParams) -> float:
    r = pair_distances(g)
    iu = np.triu_indices(g.n_atoms, k=1)
    return float((p.rep_a * np.exp(-r[iu] / p.rep_rho)).sum())


def electronic_energy(d, g: Geometry, p: ModelParams, s=None, h0=None) -> float:
    """Band plus charge-fluctuation energy, no ion-ion repulsion."""
    d = np.asarray(d, dtype=float)
    if s is None:
        s = build_overlap(g, p)
    if h0 is None:
        h0 = build_h0(g, p)
    dq = mulliken_charges(d, s) - p.q_ref_for(g.species)
    u = p.hubbard_for(g.species)
    band = float(np.einsum("ij,ji->", d, h0))
    return band + 0.5 * float((u * dq * dq).sum())


def energy(d, g: Geometry, p: ModelParams, s=None, h0=None) -> float:
    """Total energy E(D) = tr(D H0) + 1/2 sum U (q - qref)^2 + E_rep."""
    return electronic_energy(d, g, p, s=s, h0=h0) + repulsion_energy(g, p)


def effective_hamiltonian(d, g: Geometry, p: ModelParams, s=None, h0=None) -> np.ndarray:
    """H(D) = dE/dD: H0 plus the charge response 1/2 S_ij (U_i dq_i + U_j dq_j)."""
    d = np.asarray(d, dtype=float)
    if s is None:
        s = build_overlap(g, p)
    if h0 is None:
        h0 = build_h0(g, p)
    dq = mulliken_charges(d, s) - p.q_ref_for(g.species)
    udq = p.hubbard_for(g.species) * dq
    return h0 + 0.5 * s * (udq[:, None] + udq[None, :])


def forces(d, g: Geometry, p: ModelParams, h=None) -> np.ndarray:
    """-dE/dR (eV/A) of the total energy at the fixed density D.

    Without ``h`` this is the density-frozen force.  With ``h = H(D)`` of
    a converged closed-shell solution it adds the overlap term
    -tr(W dS), W = 1/2 D H D, and so gives the variational force of the
    SCF energy (Elstner et al., PRB 58, 7260 (1998)).  Each pair
    contributes dE/dr_ij (x_i - x_j) / r_ij, with dH0/dr = -beta H0,
    dS/dr = -2 alpha r S and the Born-Mayer repulsion in the same sum.
    """
    # E depends on D only through its symmetric part.
    d = matcore.symmetrize(np.asarray(d, dtype=float))
    s = build_overlap(g, p)
    h0 = build_h0(g, p)
    udq = p.hubbard_for(g.species) * (mulliken_charges(d, s) - p.q_ref_for(g.species))
    w = 0.5 * d * (udq[:, None] + udq[None, :])
    if h is not None:
        w = w - 0.5 * d @ np.asarray(h, dtype=float) @ d
    diff = g.positions[:, None, :] - g.positions[None, :, :]
    r = pair_distances(g)
    # An infinite self-distance zeroes the diagonal of the 1/r terms; the
    # diagonals of S and H0 do not depend on the positions.
    np.fill_diagonal(r, np.inf)
    radial = -2.0 * p.beta * d * h0 - (p.rep_a / p.rep_rho) * np.exp(-r / p.rep_rho)
    de_dr_over_r = radial / r - 4.0 * p.alpha * w * s
    return -(de_dr_over_r[:, :, None] * diff).sum(axis=1)


@dataclass
class ScfSolution:
    """Converged (or best-effort) self-consistent pair with bookkeeping."""

    hamiltonian: np.ndarray
    density: np.ndarray
    overlap: np.ndarray
    coeffs: np.ndarray
    energies: np.ndarray
    e_total: float
    gap: float
    strict_diis: float
    iterations: int
    converged: bool


def frontier_gap(energies, n_electrons: int) -> float:
    """Plain eigenvalue difference between first empty and last filled level."""
    energies = np.asarray(energies, dtype=float)
    n_occ = n_electrons // 2
    if n_occ >= energies.shape[0]:
        return 0.0
    return float(energies[n_occ] - energies[n_occ - 1])


def observables(sol: ScfSolution) -> tuple:
    """(e_total, gap) of a solution; refuses a degenerate Fermi level."""
    n_e = int(round(float(np.einsum("ij,ji->", sol.density, sol.overlap))))
    gap = frontier_gap(sol.energies, n_e)
    if n_e < 2 * sol.energies.shape[0] and gap < matcore.DEGENERACY_TOL:
        raise FermiDegeneracy(f"frontier gap {gap:.3e} is degenerate")
    return sol.e_total, gap


# ---------------------------------------------------------------------------
# Extended-XYZ geometries: count line, key=value comment line carrying
# n_electrons, then "species x y z" records.  Positions in Angstrom.


def format_xyz_frame(g: Geometry, extra: Mapping | None = None) -> str:
    pairs = {"n_electrons": g.n_electrons}
    if extra:
        pairs.update(extra)
    comment = " ".join(f"{k}={_fmt_value(v)}" for k, v in pairs.items())
    lines = [str(g.n_atoms), comment]
    for sp, (x, y, z) in zip(g.species, g.positions):
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
        fh.write(format_xyz_frame(g, extra))


def _parse_comment(line: str) -> dict:
    out = {}
    for token in line.split():
        if "=" not in token:
            continue
        key, value = token.split("=", 1)
        out[key] = value
    return out


def parse_xyz_frames(text: str, path="<string>") -> list:
    """All (Geometry, comment-dict) frames in an extended-xyz string."""
    lines = text.splitlines()
    frames = []
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            n = int(lines[i].strip())
        except ValueError:
            raise FileFormatError(f"{path}: expected atom count, got {lines[i]!r}")
        if len(lines) < i + 2 + n:
            raise FileFormatError(f"{path}: truncated frame at line {i + 1}")
        meta = _parse_comment(lines[i + 1])
        if "n_electrons" not in meta:
            raise FileFormatError(f"{path}: comment line lacks n_electrons")
        species, coords = [], []
        for row in lines[i + 2 : i + 2 + n]:
            parts = row.split()
            if len(parts) < 4:
                raise FileFormatError(f"{path}: bad atom line {row!r}")
            species.append(parts[0])
            coords.append([float(v) for v in parts[1:4]])
        frames.append(
            (Geometry(species, np.array(coords), int(meta["n_electrons"])), meta)
        )
        i += 2 + n
    if not frames:
        raise FileFormatError(f"{path}: no frames found")
    return frames


def load_geometry(path) -> Geometry:
    with open(path) as fh:
        text = fh.read()
    return parse_xyz_frames(text, path=str(path))[0][0]


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
    with open(path) as fh:
        return parse_key_values(fh.read(), path=str(path))


_SPECIES_FIELDS = ("hubbard_u", "eps0", "q_ref")
_SCALAR_FIELDS = ("t0", "beta", "alpha", "r0", "rep_a", "rep_rho")


def model_params_from_config(cfg: Mapping) -> ModelParams:
    """Assemble ModelParams from a flat config mapping.

    Bare keys set model scalars; ``eps0.B = -2.0`` style keys override a
    single species, with the bare key acting as the fallback.
    """
    kwargs = {}
    for name in _SCALAR_FIELDS:
        if name in cfg:
            kwargs[name] = float(cfg[name])
    for name in _SPECIES_FIELDS:
        base = ModelParams.__dataclass_fields__[name].default
        mapping = {"*": float(cfg.get(name, base))}
        for key, value in cfg.items():
            if key.startswith(name + "."):
                mapping[key.split(".", 1)[1]] = float(value)
        kwargs[name] = mapping if len(mapping) > 1 else mapping["*"]
    return ModelParams(**kwargs)


def masses_from_config(cfg: Mapping, species: Sequence[str]) -> np.ndarray:
    """Per-atom masses in amu; ``mass`` and ``mass.X`` keys, default 12.011."""
    mapping = {"*": float(cfg.get("mass", _DEFAULT_MASS))}
    for key, value in cfg.items():
        if key.startswith("mass."):
            mapping[key.split(".", 1)[1]] = float(value)
    return _per_atom(mapping, tuple(species), "mass")
