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
import math
from dataclasses import dataclass, field, replace
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

@dataclass
class Dataset:
    """m labeled geometries of one system, held as stacks.

    ``positions`` is (m, n, 3); ``hamiltonian``, ``density`` and
    ``overlap`` are (m, n, n); ``labels`` holds one (m,) array per
    scalar field of :class:`model.ScfSolution` (``_LABELS``).
    """

    species: tuple
    n_electrons: int
    positions: np.ndarray
    hamiltonian: np.ndarray
    density: np.ndarray
    overlap: np.ndarray
    labels: dict
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.positions)

    def geometry(self, i) -> model.Geometry:
        """The geometry of entry ``i``."""
        return model.Geometry(self.species, self.positions[i], self.n_electrons)

    def label(self, i) -> model.ScfSolution:
        """The labeled solution of entry ``i``; its matrices are views."""
        return model.ScfSolution(
            self.hamiltonian[i], self.density[i], self.overlap[i],
            **{k: v[i].item() for k, v in self.labels.items()},
        )


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
    if not (math.isfinite(amplitude) and math.isfinite(temperature)):
        raise ValueError("amplitude and temperature must be finite")
    scf_cfg = scf_cfg or scf.ScfConfig()
    # One row per accepted solve: positions, H, D, S, then the _LABELS.
    # Keeping these fields, not the solution, lets each trace go.
    rows = []
    attempts = 0
    max_attempts = 10 * n

    def accept(g, sol):
        rows.append((g.positions, sol.hamiltonian, sol.density, sol.overlap,
                     *(getattr(sol, k) for k in _LABELS)))

    if mode == "random_perturb":
        rng = substream(seed, "dataset")
        while len(rows) < n and attempts < max_attempts:
            attempts += 1
            disp = rng.uniform(-amplitude, amplitude, size=(seed_geometry.n_atoms, 3))
            try:
                g = seed_geometry.with_positions(seed_geometry.positions + disp)
                sol = scf.scf_solve(g, p, scf_cfg)
            except _SKIPPABLE as exc:
                log.warning("skipping sample %d: %s", attempts, exc)
                continue
            accept(g, sol)
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
        while len(rows) < n and attempts < max_attempts:
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
            accept(g, sol)
            warm = sol.density
            idx += md_stride
        if len(rows) < n:
            status = result.aborted or ("diverged" if result.diverged else "ok")
            raise GenerationExhausted(
                f"collected {len(rows)}/{n} samples; sampling trajectory "
                f"gave {len(result.frames)} frames ({status})"
            )
    else:
        raise ValueError(f"unknown generation mode {mode!r}")

    if len(rows) < n:
        raise GenerationExhausted(
            f"collected {len(rows)}/{n} samples after {attempts} attempts"
        )
    metadata = {
        "mode": mode,
        "seed": int(seed),
        "n_entries": n,
        "amplitude": float(amplitude),
        "temperature": float(temperature),
    }
    positions, h, d, s, *labels = zip(*rows)
    return Dataset(
        seed_geometry.species, seed_geometry.n_electrons, np.stack(positions),
        np.stack(h), np.stack(d), np.stack(s),
        labels={k: np.array(v) for k, v in zip(_LABELS, labels)},
        metadata=metadata,
    )


def oracle_noise_predict(
    label: model.ScfSolution,
    sigma_h,
    sigma_d,
    rngs,
    shared_noise: bool = False,
) -> Prediction:
    """Label plus symmetric Gaussian noise: one stacked row per generator.

    Row b of the (B, n, n) stack draws its H noise and then its D noise
    from ``rngs[b]`` alone, so a row's draws do not depend on the other
    rows.  ``sigma_h`` and ``sigma_d`` are one amplitude for every row or
    one per row.  With ``shared_noise`` both matrices reuse one draw
    (scaled by their sigmas), modeling a predictor whose H and D errors
    are correlated; the default draws independently.
    """
    n = label.hamiltonian.shape[0]
    sigma_h = np.broadcast_to(np.asarray(sigma_h, float), len(rngs))[:, None, None]
    sigma_d = np.broadcast_to(np.asarray(sigma_d, float), len(rngs))[:, None, None]
    if (sigma_h < 0).any() or (sigma_d < 0).any():
        raise ValueError("noise amplitudes must be non-negative")
    draws = 1 if shared_noise else 2
    noise = matcore.symmetrize(
        np.stack([rng.standard_normal((draws, n, n)) for rng in rngs])
    )
    return Prediction(
        h_pred=label.hamiltonian + sigma_h * noise[:, 0],
        d_pred=label.density + sigma_d * noise[:, -1],
        source="oracle-noise",
    )


# ---------------------------------------------------------------------------
# Kernel nearest-neighbor regression.


def descriptor(positions) -> np.ndarray:
    """Sorted pairwise distances of each (n, 3) frame (permutation invariant).

    One (n_pairs,) vector per frame of a (..., n, 3) stack, C-contiguous
    so that every reduction over it runs in one order.
    """
    positions = np.asarray(positions, dtype=float)
    iu = np.triu_indices(positions.shape[-2], k=1)
    r = model.pair_distances(positions)[..., iu[0], iu[1]]
    return np.ascontiguousarray(np.sort(r, axis=-1))


@dataclass
class KernelModel:
    species: tuple
    n_electrons: int
    descriptors: np.ndarray  # (m, n_pairs)
    h_train: np.ndarray      # (m, n, n)
    d_train: np.ndarray      # (m, n, n)
    bandwidth: float
    k_neighbors: int


# Rows of the distance matrix computed per block: memory O(chunk * m * P)
# rather than one (m, m, P) difference tensor.
_DISTANCE_CHUNK = 64


def _descriptor_distances(desc: np.ndarray) -> np.ndarray:
    """(m, m) Euclidean distances between the rows of ``desc``.

    Exact row differences, a block of rows at a time; each entry is the
    same sum as in one full (m, m, P) tensor.
    """
    out = np.empty((len(desc), len(desc)))
    for start in range(0, len(desc), _DISTANCE_CHUNK):
        block = desc[start:start + _DISTANCE_CHUNK, None, :] - desc[None, :, :]
        out[start:start + len(block)] = np.sqrt((block**2).sum(-1))
    return out


def kernel_fit(
    ds: Dataset, bandwidth: float | None = None, k_neighbors: int = 8
) -> KernelModel:
    """Store descriptors and label matrices; pick a bandwidth if not given.

    The default bandwidth is the median nearest-neighbor descriptor
    distance in the training set (falls back to the smallest positive
    distance, then 1.0, when entries coincide).  k is clamped to the
    dataset size.
    """
    return _fit(ds, bandwidth, k_neighbors)[0]


def _fit(ds: Dataset, bandwidth, k_neighbors) -> tuple:
    """(model, the (m, m) distances its bandwidth was picked from or None).

    The distance matrix comes back with an infinite diagonal.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    m = len(ds)
    desc = descriptor(ds.positions)
    dist = None
    if bandwidth is None:
        dist = _descriptor_distances(desc)
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
    km = KernelModel(
        species=ds.species,
        n_electrons=ds.n_electrons,
        descriptors=desc,
        h_train=ds.hamiltonian,
        d_train=ds.density,
        bandwidth=float(bandwidth),
        k_neighbors=min(int(k_neighbors), m),
    )
    return km, dist


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
    q = descriptor(g.positions)
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

    m, full = _fit(ds, bandwidth, k_neighbors)
    n_entries = len(ds)
    if n_entries < 2:
        raise EmptyDataset("leave-one-out needs at least two entries")
    if full is None:
        full = _descriptor_distances(m.descriptors)
    loo_model = replace(m, k_neighbors=min(m.k_neighbors, n_entries - 1))
    out = {"self_diis": [], "mae_h": [], "mae_d": []}
    for i in range(n_entries):
        dists = full[i].copy()
        dists[i] = np.inf  # hold the entry itself out
        pred = _kernel_average(loo_model, dists)
        out["self_diis"].append(_self_diis(pred, ds.overlap[i], norm))
        out["mae_h"].append(float(np.abs(pred.h_pred - ds.hamiltonian[i]).mean()))
        out["mae_d"].append(float(np.abs(pred.d_pred - ds.density[i]).mean()))
    return {k: np.array(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# Bundle layout, m entries of n atoms in one directory: manifest.txt holds
# the _MANIFEST_KEYS, "format = scval-dataset-v2" first;
# geometries.xyz holds the m geometries as extended-XYZ frames, whose
# comment lines carry a dataset's _LABELS; H.scvm, D.scvm and S.scvm each
# hold one (m*n, n) stack in frame order.  A prediction bundle is
# geometries.xyz, H.scvm and D.scvm, so a dataset is also a prediction
# bundle of its own labels.  The v1 layout, one subdirectory per entry, is
# rejected.

_MANIFEST = "manifest.txt"
_FRAMES = "geometries.xyz"
_FORMAT = "scval-dataset-v2"
_MANIFEST_KEYS = ("format", "mode", "seed", "n_entries", "amplitude", "temperature")
_KINDS = {"H": "hamiltonian", "D": "density", "S": "overlap"}
# np.int64 rejects an integer label that does not fit its array.
_LABELS = {"e_total": float, "gap": float, "strict_diis": float,
           "iterations": np.int64, "converged": np.int64}


def _write_stack(path: Path, frames, stacks: dict) -> None:
    """Write extended-XYZ frame texts and {kind: (m, n, n)} stacks."""
    path.mkdir(parents=True, exist_ok=True)
    with open(path / _FRAMES, "w") as fh:
        fh.writelines(frames)
    for kind, mats in stacks.items():
        matcore.write_scvm(path / f"{kind}.scvm", np.concatenate(mats))


def _read_stack(path, kinds) -> tuple:
    """(:class:`model.XyzStack` of geometries.xyz, {kind: (m, n, n) stack}).

    Every file must exist, the frames must be geometries of one system,
    and every stack must be exactly (m*n, n).
    """
    path = Path(path)
    for name in (_FRAMES, *(f"{kind}.scvm" for kind in kinds)):
        if not (path / name).is_file():
            raise FileFormatError(f"{path}: missing {name}")
    text = model.read_text(path / _FRAMES)
    frames = model.parse_xyz_stack(text, path=str(path / _FRAMES))
    m, n, _ = frames.positions.shape
    stacks = {}
    for kind in kinds:
        mats = matcore.read_scvm(path / f"{kind}.scvm")
        if mats.shape != (m * n, n):
            raise FileFormatError(
                f"{path / kind}.scvm: shape {mats.shape}, expected {(m * n, n)}"
            )
        stacks[kind] = mats.reshape(m, n, n)
    return frames, stacks


def save_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` as one v2 bundle (layout above) in directory ``path``."""
    path = Path(path)
    frames = (
        model._xyz_frame(ds.species, pos, ds.n_electrons,
                         {k: f(ds.labels[k][i]) for k, f in _LABELS.items()})
        for i, pos in enumerate(ds.positions)
    )
    _write_stack(path, frames, {k: getattr(ds, name) for k, name in _KINDS.items()})
    meta = {**ds.metadata, "format": _FORMAT, "n_entries": len(ds)}
    lines = [f"{k} = {model._fmt_value(meta[k])}" for k in _MANIFEST_KEYS if k in meta]
    (path / _MANIFEST).write_text("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    """Rebuild a dataset from the v2 bundle that :func:`save_dataset` wrote.

    A v1 manifest, a missing file, a misshapen stack, a frame that breaks
    a geometry rule or differs from frame 0 in species or electron count,
    a frame count other than ``n_entries`` or a missing label raises
    ``FileFormatError``.  It reads straight into the stacks: no per-entry
    object is built and no eigensolve runs.
    """
    path = Path(path)
    if not (path / _MANIFEST).is_file():
        raise FileFormatError(f"{path}: no {_MANIFEST}")
    metadata = model.read_config(path / _MANIFEST)
    if metadata.get("format") != _FORMAT:
        raise FileFormatError(
            f"{path}: format is not {_FORMAT}; regenerate it with `scval gen`"
        )
    (species, n_electrons, positions, comments), stacks = _read_stack(path, _KINDS)
    if metadata.get("n_entries") != len(positions):
        raise FileFormatError(
            f"{path}: {len(positions)} frames, n_entries = {metadata.get('n_entries')}"
        )
    rows = []
    for i, meta in enumerate(comments):
        try:
            rows.append([parse(meta[k]) for k, parse in _LABELS.items()])
        except KeyError as exc:
            raise FileFormatError(f"{path / _FRAMES}: frame {i} lacks {exc}")
        except (ValueError, OverflowError) as exc:
            raise FileFormatError(f"{path / _FRAMES}: frame {i}: {exc}")
    labels = {k: np.array(column) for k, column in zip(_LABELS, zip(*rows))}
    labels["converged"] = labels["converged"].astype(bool)
    return Dataset(
        species, n_electrons, positions,
        **{name: stacks[k] for k, name in _KINDS.items()},
        labels=labels, metadata=metadata,
    )
