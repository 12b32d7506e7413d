"""Surrogate predictors and the labeled datasets they train on.

Two stand-ins for a learned model: a noisy oracle (labels plus seeded
symmetric Gaussian noise, error dialed in exactly) and a kernel
nearest-neighbor regressor over sorted-distance descriptors.  The kernel
averages H and D in matrix space, which deliberately produces pairs that
are not mutually self-consistent; that inconsistency is precisely what
the validator is supposed to catch.  ``generate_dataset`` labels the
candidates of either mode in one loop; ``load_prediction`` is the one
reader of a prediction bundle, checked against its dataset.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import matcore, mdsim, model, scf
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
from .validator import Prediction, matrix_mae, self_diis

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
    "load_prediction",
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
        """The geometry of entry ``i``, or the stack of those a slice or an
        index array selects."""
        return model.Geometry(self.species, self.positions[i], self.n_electrons)

    def label(self, i) -> model.ScfSolution:
        """The labeled solution of entry ``i``, or the stacked solutions of
        the entries a slice or an index array selects.

        Each matrix field is then a (B, n, n) stack and each scalar field
        a (B,) array; a slice gives views, an index array copies.
        """
        scalars = {}
        for k, column in self.labels.items():
            value = column[i]
            scalars[k] = value if np.ndim(value) else value.item()
        return model.ScfSolution(
            self.hamiltonian[i], self.density[i], self.overlap[i], **scalars,
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

    Each mode supplies candidates and one loop labels them: random_perturb
    draws uniform displacements in [-amplitude, amplitude] per coordinate;
    md_sample offers every ``md_stride``-th frame after ``md_burnin`` of an
    exact-forces trajectory thermostatted at ``temperature``.  A candidate
    whose solve fails is skipped (logged) and replaced by the next: a new
    draw, or the next frame, from which the stride restarts.  After 10*n
    attempts the generation gives up with GenerationExhausted.

    ``scf_cfg`` governs the labeling solves only; the md_sample
    trajectory solves at the ``ScfConfig`` default.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if md_stride < 1:
        raise ValueError(f"md_stride must be at least 1, got {md_stride}")
    if md_burnin < 0:
        raise ValueError(f"md_burnin must be non-negative, got {md_burnin}")
    if not (math.isfinite(amplitude) and math.isfinite(temperature)):
        raise ValueError("amplitude and temperature must be finite")
    scf_cfg = scf_cfg or scf.ScfConfig()
    # Candidates are (name, positions) pairs; a generator is sent whether
    # its last candidate was kept.
    if mode == "random_perturb":
        if amplitude < 0:
            raise ValueError(f"amplitude must be non-negative, got {amplitude}")
        amplitude += 0.0  # -0.0 becomes 0.0, whose draw bounds are ordered
        rng = substream(seed, "dataset")
        candidates = ((f"sample {k}", seed_geometry.positions + rng.uniform(
            -amplitude, amplitude, size=(seed_geometry.n_atoms, 3)))
            for k in itertools.count(1))
    elif mode == "md_sample":
        trajectory = mdsim.run_md(seed_geometry, p, mdsim.MdConfig(
            dt=md_dt, n_steps=md_burnin + n * md_stride + 5 * md_stride,
            t_target=temperature, tau=md_tau, mode="exact", seed=seed,
        ))

        def harvest(i=md_burnin):
            while i < len(trajectory.frames):
                frame = trajectory.frames[i]
                kept = yield f"frame {frame.step}", frame.positions
                i += md_stride if kept else 1  # a failed frame: the next one

        candidates = harvest()
    else:
        raise ValueError(f"unknown generation mode {mode!r}")

    # One row per accepted solve: positions, H, D, S, then the _LABELS.
    # Keeping these fields, not the solution, lets each trace go.
    rows = []
    attempts, kept = 0, None
    while len(rows) < n and attempts < 10 * n:
        try:
            name, positions = candidates.send(kept)
        except StopIteration:
            break
        attempts += 1
        try:
            g = seed_geometry.with_positions(positions)
            sol = scf.scf_solve(g, p, scf_cfg)
        except _SKIPPABLE as exc:
            log.warning("skipping %s: %s", name, exc)
            kept = False
            continue
        rows.append((g.positions, sol.hamiltonian, sol.density, sol.overlap,
                     *(getattr(sol, k) for k in _LABELS)))
        kept = True
    if len(rows) < n:
        if mode == "random_perturb":
            why = f" after {attempts} attempts"
        else:
            status = trajectory.aborted or ("diverged" if trajectory.diverged else "ok")
            why = f"; sampling trajectory gave {len(trajectory.frames)} frames ({status})"
        raise GenerationExhausted(f"collected {len(rows)}/{n} samples{why}")
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
    rows.  ``label`` is one solution, shared by every row, or a stack of
    B labels (``Dataset.label`` of an index array), one per row.
    ``sigma_h`` and ``sigma_d`` are one amplitude for every row or one
    per row.  With ``shared_noise`` both matrices reuse one draw
    (scaled by their sigmas), modeling a predictor whose H and D errors
    are correlated; the default draws independently.
    """
    n = label.hamiltonian.shape[-1]
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
    # The pairs i < j in row order; a mask is cheaper than triu_indices.
    upper = ~np.tri(positions.shape[-2], dtype=bool)
    r = model.pair_distances(positions)[..., upper]
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


# Rows of a distance matrix, or of kernel averages, computed per block:
# memory O(chunk * m * P), not one (B, m, P) difference tensor.
_DISTANCE_CHUNK = 64


def _descriptor_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances between the rows of a and b.

    Exact row differences, a block of rows of ``a`` at a time; each entry
    is the same sum as in one full (len(a), len(b), P) tensor.
    """
    out = np.empty((len(a), len(b)))
    for start in range(0, len(a), _DISTANCE_CHUNK):
        block = a[start:start + _DISTANCE_CHUNK, None, :] - b[None, :, :]
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
        dist = _descriptor_distances(desc, desc)
        np.fill_diagonal(dist, np.inf)
        nn = dist.min(axis=1) if m > 1 else np.array([np.inf])
        finite = nn[np.isfinite(nn)]
        med = float(np.median(finite)) if finite.size else 0.0
        if med <= 0.0:
            positive = dist[np.isfinite(dist) & (dist > 0)]
            med = float(positive.min()) if positive.size else 1.0
        bandwidth = med
    if not 0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth!r}")
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


def _kernel_average(m: KernelModel, dists: np.ndarray) -> np.ndarray:
    """The (2, B, n, n) stacks H, D: row b of the (B, m) training distances
    ``dists`` averages its k nearest pairs with Gaussian weights.

    Rows go a block at a time; each gets the bits it would get alone.
    """
    k, n = m.k_neighbors, m.h_train.shape[-1]
    out = np.empty((2, len(dists), n, n))
    for start in range(0, len(dists), _DISTANCE_CHUNK):
        rows = dists[start:start + _DISTANCE_CHUNK]
        # Stable nearest-k selection: ties broken by training index.
        order = np.argsort(rows, axis=1, kind="stable")[:, :k]
        d = np.take_along_axis(rows, order, axis=1)
        # Shift before exponentiating so the nearest neighbor always has
        # weight 1; keeps far queries from underflowing to 0/0.
        w = np.exp(-(d * d - d[:, :1] * d[:, :1]) / (2.0 * m.bandwidth**2))
        w /= w.sum(axis=1, keepdims=True)
        for mean, train in zip(out, (m.h_train, m.d_train)):
            gathered = train[order].reshape(len(rows), k, n * n)
            mean[start:start + len(rows)] = (w[:, None, :] @ gathered).reshape(-1, n, n)
    return matcore.symmetrize(out)


def kernel_predict(m: KernelModel, g: model.Geometry) -> Prediction:
    """Gaussian-weighted average of the k nearest training pairs.

    One frame gives one (n, n) pair; a (B, n, 3) stack gives a (B, n, n)
    stack whose row b is frame b's own prediction, bit for bit.  Either
    way it is one pass and one :class:`Prediction`.
    """
    if g.species != m.species or g.n_electrons != m.n_electrons:
        raise SpeciesMismatch("query system does not match the training system")
    q = descriptor(g.positions)
    dists = _descriptor_distances(q.reshape(-1, q.shape[-1]), m.descriptors)
    h, d = _kernel_average(m, dists).reshape(2, *g.positions.shape[:-1], g.n_atoms)
    return Prediction(h, d, source="kernel")


def kernel_loo(
    ds: Dataset,
    bandwidth: float | None = None,
    k_neighbors: int = 8,
    norm: str = "frobenius",
) -> dict:
    """Leave-one-out diagnostics over the training set.

    Returns arrays of per-entry self residuals and elementwise MAEs of
    the held-out predictions; the self_diis array is what threshold
    calibration takes its percentile from.  All m entries are predicted
    in one pass over the (m, m) distances, each held out by an infinite
    distance to itself.  ``"model"`` is the fit those predictions come
    from, the one :func:`kernel_fit` gives for the same arguments.
    """
    m, full = _fit(ds, bandwidth, k_neighbors)
    n_entries = len(ds)
    if n_entries < 2:
        raise EmptyDataset("leave-one-out needs at least two entries")
    if full is None:
        full = _descriptor_distances(m.descriptors, m.descriptors)
        np.fill_diagonal(full, np.inf)  # as _fit's: each entry held out
    loo_model = replace(m, k_neighbors=min(m.k_neighbors, n_entries - 1))
    stack = Prediction(*_kernel_average(loo_model, full), source="kernel")
    return {
        "self_diis": self_diis(stack, ds.overlap, norm),
        "mae_h": matrix_mae(stack.h_pred, ds.hamiltonian),
        "mae_d": matrix_mae(stack.d_pred, ds.density),
        "model": m,
    }


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
# A manifest value is read back as its key's type: format_config writes an
# integral float such as 300.0 as "300", which read_config parses as an int.
# operator.index rejects a non-integral count or seed.
_MANIFEST_KEYS = {"format": str, "mode": str, "seed": operator.index,
                  "n_entries": operator.index, "amplitude": float,
                  "temperature": float}
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
        model.format_xyz_frame(ds.species, pos, ds.n_electrons,
                               {k: f(ds.labels[k][i]) for k, f in _LABELS.items()})
        for i, pos in enumerate(ds.positions)
    )
    _write_stack(path, frames, {k: getattr(ds, name) for k, name in _KINDS.items()})
    meta = {**ds.metadata, "format": _FORMAT, "n_entries": len(ds)}
    (path / _MANIFEST).write_text(
        model.format_config((k, meta[k]) for k in _MANIFEST_KEYS if k in meta))


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
    for key, cast in _MANIFEST_KEYS.items():
        if key in metadata:
            try:
                metadata[key] = cast(metadata[key])
            except (TypeError, ValueError) as exc:
                raise FileFormatError(f"{path / _MANIFEST}: {key}: {exc}")
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


def load_prediction(path, ds: Dataset) -> tuple:
    """The (m, n, n) H and D stacks of the prediction bundle in ``path``.

    Its frames must be the geometries of ``ds`` in order: the same count,
    species and electron count, and positions within 1e-6 A; any other
    frame raises ``FileFormatError`` naming it.
    """
    frames, stacks = _read_stack(path, "HD")
    if len(frames.positions) != len(ds):
        raise FileFormatError(
            f"{path}: {len(frames.positions)} frames for {len(ds)} entries"
        )
    if (frames.species, frames.n_electrons) != (ds.species, ds.n_electrons):
        bad = np.ones(len(ds), dtype=bool)
    else:
        bad = np.abs(frames.positions - ds.positions).max(axis=(1, 2)) > 1e-6
    if bad.any():
        i = int(bad.argmax())
        raise FileFormatError(f"{path}: frame {i} is not the geometry of entry {i}")
    return stacks["H"], stacks["D"]
