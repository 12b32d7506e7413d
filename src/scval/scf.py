"""Self-consistent field solver with Anderson mixing of the charges.

H(D) depends on D only through the Mulliken charges q, and affinely, so
the solver mixes Hamiltonians and measures progress on q.  Each
iteration fills the aufbau density D of an input Hamiltonian H_in and
banks the damped pair (1 - damping) H_in + damping H(D), with its
charges, and the charge residual q(D) - q_in.  The next input combines
the banked pairs with weights that sum to one and minimize the combined
residual (Anderson, J. ACM 12, 547 (1965); Walker & Ni, SIAM J. Numer.
Anal. 49, 1715 (2011)).  On one banked pair this is plain linear mixing.
The commutator residual at D is the stopping test, so the returned pair
keeps H = H(D) exactly and D is always an aufbau density.  Each solve
builds one :class:`model.Context` and takes S, X, H0, U, q_ref and E_rep
from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import matcore, model
from .errors import NoConvergence

__all__ = [
    "ScfConfig",
    "scf_solve",
    "scf_trace",
    "write_trace_csv",
]


@dataclass(frozen=True)
class ScfConfig:
    """Iteration limits and mixing knobs.

    ``damping`` is the weight of the output Hamiltonian in each linear
    mixing step, ``diis_depth`` the number of recent iterations the
    Anderson weights combine, and ``diis_start`` the first iteration
    that combines more than the latest one.  Setting ``diis_start``
    beyond ``max_iter`` gives plain linear mixing; since H is affine in
    D, that follows the Hamiltonians of density damping started from a
    density with the reference charges.
    """

    max_iter: int = 200
    tol: float = 1e-9
    damping: float = 0.3
    diis_depth: int = 8
    diis_start: int = 2
    norm: str = "frobenius"

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if self.diis_depth < 2:
            raise ValueError("diis_depth must be at least 2")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        matcore.resolve_norm(self.norm)


def _anderson_weights(residuals) -> np.ndarray:
    """Weights c with sum c = 1 minimizing |sum_k c_k r_k|.

    Least squares on differences to the latest residual, which returns
    the minimum-norm answer for a rank-deficient history instead of
    refusing it.
    """
    if len(residuals) == 1:
        return np.ones(1)
    last = residuals[-1]
    diffs = np.stack([r - last for r in residuals[:-1]], axis=1)
    gamma = np.linalg.lstsq(diffs, -last, rcond=None)[0]
    return np.append(gamma, 1.0 - gamma.sum())


def _package(ctx, d, err, e_total, iterations, converged) -> model.ScfSolution:
    h = ctx.effective_hamiltonian(d)
    return model.ScfSolution(
        hamiltonian=h,
        density=d,
        overlap=ctx.s,
        e_total=e_total,
        gap=model.frontier_gap(ctx.orbitals(h)[0], ctx.g.n_electrons),
        strict_diis=err,
        iterations=iterations,
        converged=converged,
    )


def _run(g: model.Geometry, p: model.ModelParams, cfg: ScfConfig, d0=None):
    ctx = model.Context(g, p)
    beta = cfg.damping
    if d0 is not None:
        d0 = np.asarray(d0, float)
        h_in = ctx.effective_hamiltonian(d0)
        q_in = model.mulliken_charges(d0, ctx.s)
    else:
        h_in, q_in = ctx.h0, ctx.q_ref
    hist = deque(maxlen=cfg.diis_depth)  # (residual, damped H, damped q)
    trace = []
    best = None  # (err, d, e_total, iteration)

    for it in range(1, cfg.max_iter + 1):
        levels, orbs = ctx.orbitals(h_in)
        occ = matcore.aufbau_occupations(levels, g.n_electrons)
        d = matcore.build_density(orbs, occ)
        h = ctx.effective_hamiltonian(d)
        err = matcore.error_magnitude(matcore.commutator_error(h, d, ctx.s), cfg.norm)
        e_total = ctx.energy(d)
        trace.append((it, err, e_total))
        if best is None or err < best[0]:
            best = (err, d, e_total, it)
        if err <= cfg.tol:
            return _package(ctx, d, err, e_total, it, True), trace
        q = model.mulliken_charges(d, ctx.s)
        hist.append(
            (q - q_in, (1 - beta) * h_in + beta * h, (1 - beta) * q_in + beta * q)
        )
        mix = list(hist) if it >= cfg.diis_start else [hist[-1]]
        c = _anderson_weights([r for r, _, _ in mix])
        h_in = sum(ck * hk for ck, (_, hk, _) in zip(c, mix))
        q_in = sum(ck * qk for ck, (_, _, qk) in zip(c, mix))

    err, d, e_total, it = best
    sol = _package(ctx, d, err, e_total, cfg.max_iter, False)
    raise NoConvergence(
        f"no convergence after {cfg.max_iter} iterations "
        f"(best residual {err:.3e} at iteration {it})",
        best=sol,
        trace=trace,
    )


def scf_solve(
    g: model.Geometry, p: model.ModelParams, cfg: ScfConfig | None = None, d0=None
) -> model.ScfSolution:
    """Drive H(D) / D(H) to self-consistency; see :class:`ScfConfig`.

    Returns a solution whose Hamiltonian is rebuilt from the final
    density, so H = effective_hamiltonian(D) holds exactly.  Raises
    NoConvergence (carrying the best iterate) when the budget runs out.
    """
    sol, _ = _run(g, p, cfg or ScfConfig(), d0=d0)
    return sol


def scf_trace(
    g: model.Geometry, p: model.ModelParams, cfg: ScfConfig | None = None, d0=None
) -> tuple:
    """Same run as scf_solve, returning (solution, trace).

    The trace is a list of (iteration, residual, e_total) tuples, one
    per iteration in order.
    """
    return _run(g, p, cfg or ScfConfig(), d0=d0)


def write_trace_csv(path, trace) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("iteration,diis_error,e_total\n")
        for it, err, e_total in trace:
            fh.write(f"{it},{err:.17g},{e_total:.17g}\n")
