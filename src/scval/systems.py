"""Convenience geometry builders used by the test-suite and examples."""

from __future__ import annotations

import numpy as np

from .model import Geometry

__all__ = ["ring_geometry", "chain_geometry", "random_geometry"]


def ring_geometry(
    n_atoms: int,
    spacing: float = 1.4,
    n_electrons: int | None = None,
    species="A",
) -> Geometry:
    """Planar ring with the given nearest-neighbor spacing."""
    if n_atoms < 3:
        raise ValueError("a ring needs at least 3 atoms")
    radius = spacing / (2.0 * np.sin(np.pi / n_atoms))
    angles = 2.0 * np.pi * np.arange(n_atoms) / n_atoms
    pos = np.stack(
        [radius * np.cos(angles), radius * np.sin(angles), np.zeros(n_atoms)],
        axis=1,
    )
    sp = _species_list(species, n_atoms)
    return Geometry(sp, pos, n_electrons if n_electrons is not None else n_atoms)


def chain_geometry(
    n_atoms: int,
    spacing: float = 1.4,
    n_electrons: int | None = None,
    species="A",
) -> Geometry:
    pos = np.zeros((n_atoms, 3))
    pos[:, 0] = spacing * np.arange(n_atoms)
    sp = _species_list(species, n_atoms)
    return Geometry(sp, pos, n_electrons if n_electrons is not None else n_atoms)


def random_geometry(
    rng: np.random.Generator,
    n_atoms: int,
    box: float = 3.0,
    min_dist: float = 0.9,
    n_electrons: int | None = None,
    species="A",
) -> Geometry:
    """Uniform draws in a cube, rejecting overlaps closer than min_dist."""
    pos = np.zeros((n_atoms, 3))
    placed = 0
    attempts = 0
    while placed < n_atoms:
        attempts += 1
        if attempts > 1000 * n_atoms:
            raise RuntimeError("could not place atoms; box too small?")
        cand = rng.uniform(0.0, box, size=3)
        if placed and np.sqrt(((pos[:placed] - cand) ** 2).sum(1)).min() < min_dist:
            continue
        pos[placed] = cand
        placed += 1
    sp = _species_list(species, n_atoms)
    ne = n_electrons if n_electrons is not None else 2 * (n_atoms // 2) or 2
    return Geometry(sp, pos, ne)


def _species_list(species, n_atoms: int):
    if isinstance(species, str):
        return [species] * n_atoms
    species = list(species)
    if len(species) == n_atoms:
        return species
    # Short sequences repeat: ("A", "B") alternates around the system.
    return [species[i % len(species)] for i in range(n_atoms)]
