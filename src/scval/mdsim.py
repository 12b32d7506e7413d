"""Velocity-Verlet dynamics with a weak-coupling thermostat and a
self-consistency gate.

Three force modes: exact (analytic variational forces of the SCF
energy), surrogate_only (density-frozen forces from a predictor), and
predictor_corrector, which trusts the surrogate only while the self
residual of its prediction stays at or below a threshold and falls back
to the exact solve otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore, model, scf
from .errors import InvalidGeometry, NoConvergence
from .rng import substream
from .validator import Prediction, self_diis

__all__ = [
    "KB_EV_PER_K",
    "MdConfig",
    "MdFrame",
    "MdResult",
    "forces_surrogate",
    "maxwell_velocities",
    "instantaneous_temperature",
    "run_md",
    "write_trajectory_xyz",
    "write_steps_csv",
]

KB_EV_PER_K = 8.617333262e-5
# 1 amu * A^2 / fs^2 expressed in eV.
EV_PER_AMU_A2_FS2 = 1.66053906660e-27 * 1e10 / 1.602176634e-19

_POSITION_LIMIT = 1.0e3   # Angstrom
_TEMPERATURE_LIMIT = 1.0e6  # Kelvin

_MODES = ("exact", "surrogate_only", "predictor_corrector")


@dataclass(frozen=True)
class MdConfig:
    """Time step and thermostat settings; tau=inf runs plain NVE."""

    n_steps: int
    t_target: float
    dt: float = 0.5          # fs
    tau: float = 100.0       # fs, Berendsen coupling time
    threshold: float | None = None
    mode: str = "exact"
    seed: int = 0
    norm: str = "frobenius"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not all(map(math.isfinite, (self.dt, self.t_target))):
            raise ValueError("dt and t_target must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.t_target < 0:
            raise ValueError("t_target must be non-negative")
        if not (self.tau == math.inf or self.tau >= self.dt):
            raise ValueError("tau must be >= dt (or inf for NVE)")
        if self.mode == "predictor_corrector":
            # NaN fails every comparison; inf accepts every prediction.
            if self.threshold is None or not self.threshold >= 0:
                raise ValueError(
                    "predictor_corrector needs a non-negative threshold"
                )
        matcore.resolve_norm(self.norm)


@dataclass
class MdFrame:
    step: int
    positions: np.ndarray
    velocities: np.ndarray
    temperature: float
    e_total: float
    max_force: float
    self_diis: float   # nan when no prediction was made
    corrected: bool    # True when the step's forces came from SCF


@dataclass
class MdResult:
    frames: list
    diverged: bool = False
    aborted: str | None = None

    @property
    def positions(self) -> np.ndarray:
        return np.stack([f.positions for f in self.frames])

    @property
    def temperatures(self) -> np.ndarray:
        return np.array([f.temperature for f in self.frames])


def forces_surrogate(ctx: model.Context, pred: Prediction) -> np.ndarray:
    """Density-frozen forces, with D held fixed at the prediction."""
    return ctx.forces(pred.d_pred)


def maxwell_velocities(
    rng: np.random.Generator, masses: np.ndarray, t_target: float
) -> np.ndarray:
    """Maxwell-Boltzmann draw with the center-of-mass drift removed."""
    n = masses.shape[0]
    if t_target <= 0:
        return np.zeros((n, 3))
    sigma = np.sqrt(KB_EV_PER_K * t_target / (masses * EV_PER_AMU_A2_FS2))
    v = rng.standard_normal((n, 3)) * sigma[:, None]
    v -= (masses[:, None] * v).sum(axis=0) / masses.sum()
    return v


def instantaneous_temperature(velocities, masses) -> float:
    """T = 2 KE / (3 N kB)."""
    ke = 0.5 * EV_PER_AMU_A2_FS2 * float(
        (masses * (np.asarray(velocities) ** 2).sum(axis=1)).sum()
    )
    n = masses.shape[0]
    return 2.0 * ke / (3.0 * n * KB_EV_PER_K)


def run_md(
    g0: model.Geometry,
    p: model.ModelParams,
    cfg: MdConfig,
    predictor=None,
    masses=None,
    scf_cfg: scf.ScfConfig | None = None,
) -> MdResult:
    """Integrate and return every frame, including the initial one.

    Divergence (any |coordinate| beyond 1e3 A or T beyond 1e6 K) and a
    failed exact solve both stop the run early; the partial trajectory
    comes back flagged instead of raising, so the failure itself remains
    a reportable result.
    """
    if cfg.mode != "exact" and predictor is None:
        raise ValueError(f"mode {cfg.mode!r} needs a predictor")
    if masses is None:
        masses = model.masses_from_config({}, g0.species)
    masses = np.asarray(masses, dtype=float)
    if masses.shape != (g0.n_atoms,) or not np.all((masses > 0) & (masses < np.inf)):
        raise ValueError("masses must be positive and finite, one per atom")

    warm = {"d": None}

    def evaluate(g):
        # Returns (forces, e_total, self_residual, corrected).
        ctx = model.Context(g, p)
        sd = float("nan")
        if cfg.mode != "exact":
            pred = predictor(g)
            sd = self_diis(pred, ctx.s, cfg.norm)
            if cfg.mode == "surrogate_only" or sd <= cfg.threshold:
                return forces_surrogate(ctx, pred), ctx.energy(pred.d_pred), sd, False
        # The solve starts from the last exact density, which keeps it to
        # a few iterations; a failed solve raises NoConvergence.
        sol = scf.scf_solve(g, p, scf_cfg, d0=warm["d"])
        warm["d"] = sol.density
        return ctx.forces(sol.density, h=sol.hamiltonian), sol.e_total, sd, True

    rng = substream(cfg.seed, "velocities")
    pos = g0.positions.copy()
    vel = maxwell_velocities(rng, masses, cfg.t_target)
    result = MdResult(frames=[])

    try:
        forces, e_total, sd, corrected = evaluate(g0)
    except NoConvergence as exc:
        result.aborted = f"initial solve failed: {exc}"
        return result

    def record(step):
        result.frames.append(
            MdFrame(
                step=step,
                positions=pos.copy(),
                velocities=vel.copy(),
                temperature=instantaneous_temperature(vel, masses),
                e_total=e_total,
                max_force=float(np.sqrt((forces**2).sum(axis=1)).max()),
                self_diis=sd,
                corrected=corrected,
            )
        )

    record(0)
    accel = forces / (masses[:, None] * EV_PER_AMU_A2_FS2)
    for step in range(1, cfg.n_steps + 1):
        v_half = vel + 0.5 * cfg.dt * accel
        pos = pos + cfg.dt * v_half
        try:
            forces, e_total, sd, corrected = evaluate(g0.with_positions(pos))
        except NoConvergence as exc:
            result.aborted = f"step {step}: {exc}"
            break
        except InvalidGeometry:
            # Atoms driven into collision: a blown-up trajectory, not a
            # caller error.
            result.diverged = True
            break
        accel = forces / (masses[:, None] * EV_PER_AMU_A2_FS2)
        vel = v_half + 0.5 * cfg.dt * accel
        if not math.isinf(cfg.tau):
            t_inst = instantaneous_temperature(vel, masses)
            if t_inst > 0.0:
                # Weak-coupling rescale toward the target temperature.
                lam = math.sqrt(
                    max(0.0, 1.0 + (cfg.dt / cfg.tau) * (cfg.t_target / t_inst - 1.0))
                )
                vel = vel * lam
        record(step)
        frame = result.frames[-1]
        if (
            float(np.abs(pos).max()) > _POSITION_LIMIT
            or frame.temperature > _TEMPERATURE_LIMIT
        ):
            result.diverged = True
            break
    return result


def write_trajectory_xyz(path, result: MdResult, g0: model.Geometry, dt: float) -> None:
    """Multi-frame extended xyz; this is the primary trajectory output.

    The frames' positions were checked as the run made them.
    """
    with open(path, "w") as fh:
        for f in result.frames:
            fh.write(model.format_xyz_frame(g0.species, f.positions, g0.n_electrons, {
                "step": f.step,
                "time_fs": f.step * dt,
                "e_total": f.e_total,
                "temperature": f.temperature,
                "max_force": f.max_force,
                "corrected": f.corrected,
            }))


def write_steps_csv(path, result: MdResult) -> None:
    """Per-step diagnostics, including the gate decisions."""
    with open(path, "w", newline="") as fh:
        fh.write("step,temperature,e_total,max_force,self_diis,corrected\n")
        for f in result.frames:
            fh.write(
                f"{f.step},{f.temperature:.17g},{f.e_total:.17g},"
                f"{f.max_force:.17g},{f.self_diis:.17g},{int(f.corrected)}\n"
            )
