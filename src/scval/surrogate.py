"""Surrogate predictors and the labeled datasets they train on.

Two stand-ins for a learned model: a noisy oracle (labels plus seeded
symmetric Gaussian noise, error dialed in exactly) and a kernel
nearest-neighbor regressor over sorted-distance descriptors.  The kernel
averages H and D in matrix space, which deliberately produces pairs that
are not mutually self-consistent; that inconsistency is precisely what
the validator is supposed to catch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import matcore, model, scf
from .errors import (
    DegenerateInput,
    EmptyDataset,
    FermiDegeneracy,
    FileFormatError,
    GenerationExhausted,
    InvalidGeometry,
    LinearDependence,
    NoConvergence,
    SpeciesMismatch,
)
from .rng import substream
from .validator import Prediction

__all__ = [
    "DatasetEntry",
    "Dataset",
    "generate_dataset",
    "oracle_noise_predict",
    "descriptor",
    "KernelModel",
    "kernel_fit",
    "kernel_predict",
    "kernel_loo",
    "save_dataset",
    "load_dataset",
]

log = logging.getLogger(__name__)

_META_FLOATS = ("e_total", "gap", "strict_diis")


@dataclass
class DatasetEntry:
    geometry: model.Geometry
    solution: model.ScfSolution


@dataclass
class Dataset:
    entries: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.entries:
            raise EmptyDataset("dataset has no entries")
        ref = self.entries[0].geometry
        for i, entry in enumerate(self.entries):
            g = entry.geometry
            if g.species != ref.species or g.n_electrons != ref.n_electrons:
                raise SpeciesMismatch(
                    f"entry {i} species/electron count differs from entry 0"
                )

    def __len__(self) -> int:
        return len(self.entries)


_SKIPPABLE = (
    NoConvergence,
    FermiDegeneracy,
    LinearDependence,
    InvalidGeometry,
    DegenerateInput,
)


def generate_dataset(
    seed_geometry: model.Geometry,
    p: model.ModelParams,
    n: int,
    mode: str = "random_perturb",
    amplitude: float = 0.05,
    temperature: float = 300.0,
    seed: int = 0,
    scf_cfg: scf.ScfConfig | None = None,
    md_dt: float = 0.5,
    md_stride: int = 10,
    md_burnin: int = 100,
    md_tau: float = 100.0,
) -> Dataset:
    """Labeled dataset around a seed geometry.

    random_perturb draws uniform displacements in [-amplitude, amplitude]
    per coordinate; md_sample harvests frames from an exact-forces
    trajectory thermostatted at ``temperature``.  Geometries whose solve
    fails are skipped (logged); after 10*n attempts the generation gives
    up with GenerationExhausted.

    ``scf_cfg`` governs the labeling solves only; the md_sample
    trajectory solves at the ``ScfConfig`` default.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    scf_cfg = scf_cfg or scf.ScfConfig()
    entries = []
    attempts = 0
    max_attempts = 10 * n

    if mode == "random_perturb":
        rng = substream(seed, "dataset")
        while len(entries) < n and attempts < max_attempts:
            attempts += 1
            disp = rng.uniform(-amplitude, amplitude, size=(seed_geometry.n_atoms, 3))
            try:
                g = seed_geometry.with_positions(seed_geometry.positions + disp)
                sol = scf.scf_solve(g, p, scf_cfg)
            except _SKIPPABLE as exc:
                log.warning("skipping sample %d: %s", attempts, exc)
                continue
            entries.append(DatasetEntry(g, sol))
    elif mode == "md_sample":
        from . import mdsim

        cfg = mdsim.MdConfig(
            dt=md_dt,
            n_steps=md_burnin + n * md_stride + 5 * md_stride,
            t_target=temperature,
            tau=md_tau,
            mode="exact",
            seed=seed,
        )
        result = mdsim.run_md(seed_geometry, p, cfg)
        idx = md_burnin
        warm = None
        while len(entries) < n and attempts < max_attempts:
            if idx >= len(result.frames):
                break
            attempts += 1
            frame = result.frames[idx]
            try:
                g = seed_geometry.with_positions(frame.positions)
                # Warm-starting from the previous label keeps hot frames
                # out of cold-start limit cycles.
                sol = scf.scf_solve(g, p, scf_cfg, d0=warm)
            except _SKIPPABLE as exc:
                log.warning("skipping frame %d: %s", frame.step, exc)
                idx += 1  # replacement: walk to the next frame
                continue
            entries.append(DatasetEntry(g, sol))
            warm = sol.density
            idx += md_stride
        if len(entries) < n:
            status = result.aborted or ("diverged" if result.diverged else "ok")
            raise GenerationExhausted(
                f"collected {len(entries)}/{n} samples; sampling trajectory "
                f"gave {len(result.frames)} frames ({status})"
            )
    else:
        raise ValueError(f"unknown generation mode {mode!r}")

    if len(entries) < n:
        raise GenerationExhausted(
            f"collected {len(entries)}/{n} samples after {attempts} attempts"
        )
    metadata = {
        "mode": mode,
        "seed": int(seed),
        "n_entries": n,
        "amplitude": float(amplitude),
        "temperature": float(temperature),
    }
    return Dataset(entries=entries, metadata=metadata)


def _symmetric_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    return matcore.symmetrize(rng.standard_normal((n, n)))


def oracle_noise_predict(
    label: model.ScfSolution,
    sigma_h: float,
    sigma_d: float,
    seed: int = 0,
    shared_noise: bool = False,
) -> Prediction:
    """Label plus seeded symmetric Gaussian noise.

    With ``shared_noise`` both matrices reuse one draw (scaled by their
    sigmas), modeling a predictor whose H and D errors are correlated;
    the default draws independently.
    """
    if sigma_h < 0 or sigma_d < 0:
        raise ValueError("noise amplitudes must be non-negative")
    rng = substream(seed, "oracle-noise")
    n = label.hamiltonian.shape[0]
    noise_h = _symmetric_noise(rng, n)
    noise_d = noise_h if shared_noise else _symmetric_noise(rng, n)
    return Prediction(
        h_pred=label.hamiltonian + sigma_h * noise_h,
        d_pred=label.density + sigma_d * noise_d,
        source="oracle-noise",
    )


# ---------------------------------------------------------------------------
# Kernel nearest-neighbor regression.


def descriptor(g: model.Geometry) -> np.ndarray:
    """Sorted vector of all pairwise distances (permutation invariant)."""
    r = model.pair_distances(g)
    iu = np.triu_indices(g.n_atoms, k=1)
    return np.sort(r[iu])


@dataclass
class KernelModel:
    species: tuple
    n_electrons: int
    descriptors: np.ndarray  # (m, n_pairs)
    h_train: np.ndarray      # (m, n, n)
    d_train: np.ndarray      # (m, n, n)
    bandwidth: float
    k_neighbors: int


def kernel_fit(
    ds: Dataset, bandwidth: float | None = None, k_neighbors: int = 8
) -> KernelModel:
    """Store descriptors and label matrices; pick a bandwidth if not given.

    The default bandwidth is the median nearest-neighbor descriptor
    distance in the training set (falls back to the smallest positive
    distance, then 1.0, when entries coincide).  k is clamped to the
    dataset size.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    m = len(ds)
    desc = np.stack([descriptor(e.geometry) for e in ds.entries])
    if bandwidth is None:
        dist = np.sqrt(
            np.maximum(
                ((desc[:, None, :] - desc[None, :, :]) ** 2).sum(-1), 0.0
            )
        )
        np.fill_diagonal(dist, np.inf)
        nn = dist.min(axis=1) if m > 1 else np.array([np.inf])
        finite = nn[np.isfinite(nn)]
        med = float(np.median(finite)) if finite.size else 0.0
        if med <= 0.0:
            positive = dist[np.isfinite(dist) & (dist > 0)]
            med = float(positive.min()) if positive.size else 1.0
        bandwidth = med
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    g0 = ds.entries[0].geometry
    return KernelModel(
        species=g0.species,
        n_electrons=g0.n_electrons,
        descriptors=desc,
        h_train=np.stack([e.solution.hamiltonian for e in ds.entries]),
        d_train=np.stack([e.solution.density for e in ds.entries]),
        bandwidth=float(bandwidth),
        k_neighbors=min(int(k_neighbors), m),
    )


def _kernel_average(m: KernelModel, dists: np.ndarray) -> Prediction:
    # Stable nearest-k selection: ties broken by training index.
    order = np.argsort(dists, kind="stable")[: m.k_neighbors]
    d = dists[order]
    # Shift before exponentiating so the nearest neighbor always has
    # weight 1; keeps far queries from underflowing to 0/0.
    w = np.exp(-(d * d - d[0] * d[0]) / (2.0 * m.bandwidth**2))
    w /= w.sum()
    h = np.tensordot(w, m.h_train[order], axes=1)
    dmat = np.tensordot(w, m.d_train[order], axes=1)
    return Prediction(
        h_pred=matcore.symmetrize(h),
        d_pred=matcore.symmetrize(dmat),
        source="kernel",
    )


def kernel_predict(m: KernelModel, g: model.Geometry) -> Prediction:
    """Gaussian-weighted average of the k nearest training pairs."""
    if g.species != m.species or g.n_electrons != m.n_electrons:
        raise SpeciesMismatch("query system does not match the training system")
    q = descriptor(g)
    dists = np.sqrt(((m.descriptors - q) ** 2).sum(axis=1))
    return _kernel_average(m, dists)


def kernel_loo(
    ds: Dataset,
    bandwidth: float | None = None,
    k_neighbors: int = 8,
    norm: str = "frobenius",
) -> dict:
    """Leave-one-out diagnostics over the training set.

    Returns arrays of per-entry self residuals and elementwise MAEs of
    the held-out predictions; the self_diis array is what threshold
    calibration takes its percentile from.
    """
    from .validator import self_diis as _self_diis

    m = kernel_fit(ds, bandwidth=bandwidth, k_neighbors=k_neighbors)
    n_entries = len(ds)
    if n_entries < 2:
        raise EmptyDataset("leave-one-out needs at least two entries")
    full = np.sqrt(
        np.maximum(
            (
                (m.descriptors[:, None, :] - m.descriptors[None, :, :]) ** 2
            ).sum(-1),
            0.0,
        )
    )
    loo_model = KernelModel(
        species=m.species,
        n_electrons=m.n_electrons,
        descriptors=m.descriptors,
        h_train=m.h_train,
        d_train=m.d_train,
        bandwidth=m.bandwidth,
        k_neighbors=min(m.k_neighbors, n_entries - 1),
    )
    out = {"self_diis": [], "mae_h": [], "mae_d": []}
    for i, entry in enumerate(ds.entries):
        dists = full[i].copy()
        dists[i] = np.inf  # hold the entry itself out
        pred = _kernel_average(loo_model, dists)
        sol = entry.solution
        out["self_diis"].append(_self_diis(pred, sol.overlap, norm))
        out["mae_h"].append(float(np.abs(pred.h_pred - sol.hamiltonian).mean()))
        out["mae_d"].append(float(np.abs(pred.d_pred - sol.density).mean()))
    return {k: np.array(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# Dataset directory layout: numbered subdirectories each holding
# geometry.xyz, H.scvm, D.scvm, S.scvm and a key=value meta file, plus a
# manifest listing the entries and the generation seed.

_MANIFEST = "manifest.txt"


def save_dataset(ds: Dataset, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    names = []
    for i, entry in enumerate(ds.entries):
        name = f"{i:04d}"
        sub = path / name
        sub.mkdir(exist_ok=True)
        model.dump_geometry(sub / "geometry.xyz", entry.geometry)
        sol = entry.solution
        matcore.write_scvm(sub / "H.scvm", sol.hamiltonian)
        matcore.write_scvm(sub / "D.scvm", sol.density)
        matcore.write_scvm(sub / "S.scvm", sol.overlap)
        with open(sub / "meta", "w") as fh:
            fh.write(f"e_total = {sol.e_total:.17g}\n")
            fh.write(f"gap = {sol.gap:.17g}\n")
            fh.write(f"strict_diis = {sol.strict_diis:.17g}\n")
            fh.write(f"iterations = {sol.iterations}\n")
            fh.write(f"converged = {int(sol.converged)}\n")
        names.append(name)
    with open(path / _MANIFEST, "w") as fh:
        fh.write("format = scval-dataset-v1\n")
        for key in ("mode", "seed", "n_entries", "amplitude", "temperature"):
            if key in ds.metadata:
                fh.write(f"{key} = {model._fmt_value(ds.metadata[key])}\n")
        for name in names:
            fh.write(f"entry = {name}\n")


def load_dataset(path) -> Dataset:
    """Rebuild a dataset; eigenvectors are re-derived from (H, S)."""
    path = Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        raise FileFormatError(f"{path}: no {_MANIFEST}")
    names = []
    metadata = {}
    with open(manifest_path) as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "entry":
                names.append(value)
            else:
                metadata[key] = model._parse_scalar(value)
    if not names:
        raise EmptyDataset(f"{path}: manifest lists no entries")
    entries = []
    for name in names:
        sub = path / name
        g = model.load_geometry(sub / "geometry.xyz")
        h = matcore.read_scvm(sub / "H.scvm")
        d = matcore.read_scvm(sub / "D.scvm")
        s = matcore.read_scvm(sub / "S.scvm")
        meta = model.read_config(sub / "meta")
        eig = matcore.gen_eigensolve(h, s)
        sol = model.ScfSolution(
            hamiltonian=h,
            density=d,
            overlap=s,
            coeffs=eig.coeffs,
            energies=eig.energies,
            e_total=float(meta["e_total"]),
            gap=float(meta["gap"]),
            strict_diis=float(meta["strict_diis"]),
            iterations=int(meta["iterations"]),
            converged=bool(int(meta["converged"])),
        )
        entries.append(DatasetEntry(g, sol))
    return Dataset(entries=entries, metadata=metadata)
