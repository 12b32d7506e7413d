"""Self-consistent field solver with Anderson mixing of the charges.

H(D) depends on D only through the Mulliken charges q, and affinely, so
the solver mixes Hamiltonians and measures progress on q.  Each
iteration fills the aufbau density D of an input Hamiltonian H_in and
banks the damped pair (1 - damping) H_in + damping H(D), with its
charges, and the charge residual q(D) - q_in.  The next input combines
the banked pairs with weights that sum to one and minimize the combined
residual (Anderson, J. ACM 12, 547 (1965); Walker & Ni, SIAM J. Numer.
Anal. 49, 1715 (2011)).  On one banked pair this is plain linear mixing.
The history is three preallocated arrays of depth ``diis_depth``, oldest
row first: residuals (depth, n), damped H (depth, n, n) and damped q
(depth, n); the mixed input is a weighted sum over their leading axis.
The commutator residual at D is the stopping test, so the returned pair
keeps H = H(D) exactly and D is always an aufbau density.  Each solve
builds one :class:`model.Context` and takes S, X, H0, U, q_ref and E_rep
from it; one ``Context.response`` call per iteration gives q, H(D) and
E(D) of the new density from a single Mulliken pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore, model
from .errors import NoConvergence

__all__ = [
    "ScfConfig",
    "scf_solve",
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
        if not 0 < self.tol < math.inf:  # NaN fails too
            raise ValueError("tol must be positive and finite")
        matcore.resolve_norm(self.norm)


def _package(ctx, d, h, err, e_total, iterations, converged,
             trace) -> model.ScfSolution:
    return model.ScfSolution(
        hamiltonian=h,
        density=d,
        overlap=ctx.s,
        e_total=e_total,
        gap=model.frontier_gap(ctx.orbitals(h)[0], ctx.g.n_electrons),
        strict_diis=err,
        iterations=iterations,
        converged=converged,
        trace=trace,
    )


def scf_solve(
    g: model.Geometry, p: model.ModelParams, cfg: ScfConfig | None = None, d0=None
) -> model.ScfSolution:
    """Drive H(D) / D(H) to self-consistency; see :class:`ScfConfig`.

    Starts from H0 and the reference charges, or from H(``d0``) when a
    density is given.  Returns a solution whose Hamiltonian is H(D) of
    the final density, so H = effective_hamiltonian(D) holds exactly,
    and whose ``trace`` records every iteration.  Raises NoConvergence
    (carrying the best iterate) when the budget runs out.
    """
    cfg = cfg or ScfConfig()
    ctx = model.Context(g, p)
    beta, n = cfg.damping, g.n_atoms
    if d0 is not None:
        q_in, h_in, _ = ctx.response(d0)
    else:
        h_in, q_in = ctx.h0, ctx.q_ref
    # Anderson history, oldest first: residuals, damped H, damped q.
    res_k = np.empty((cfg.diis_depth, n))
    h_k = np.empty((cfg.diis_depth, n, n))
    q_k = np.empty((cfg.diis_depth, n))
    k = 0  # banked rows
    trace = []
    best = None  # (err, d, h, e_total, iteration)

    for it in range(1, cfg.max_iter + 1):
        levels, orbs = ctx.orbitals(h_in)
        occ = matcore.aufbau_occupations(levels, g.n_electrons)
        d = matcore.build_density(orbs, occ)
        q, h, e_total = ctx.response(d)
        err = matcore.error_magnitude(matcore.commutator_error(h, d, ctx.s), cfg.norm)
        trace.append((it, err, e_total))
        if best is None or err < best[0]:
            best = (err, d, h, e_total, it)
        if err <= cfg.tol:
            return _package(ctx, d, h, err, e_total, it, True, trace)
        if k == cfg.diis_depth:
            for a in (res_k, h_k, q_k):
                a[:-1] = a[1:]
            k -= 1
        res_k[k], h_k[k], q_k[k] = (
            q - q_in, (1 - beta) * h_in + beta * h, (1 - beta) * q_in + beta * q
        )
        k += 1
        # Weights c with sum c = 1 minimizing |sum c r|, from least squares
        # on differences to the latest residual, which returns the
        # minimum-norm answer for a rank-deficient history.
        lo = 0 if it >= cfg.diis_start else k - 1
        c = np.ones(1)
        if k - lo > 1:
            last = res_k[k - 1]
            gamma = np.linalg.lstsq((res_k[lo:k - 1] - last).T, -last, rcond=None)[0]
            c = np.append(gamma, 1.0 - gamma.sum())
        h_in = (c[:, None, None] * h_k[lo:k]).sum(axis=0)
        q_in = (c[:, None] * q_k[lo:k]).sum(axis=0)

    err, d, h, e_total, it = best
    sol = _package(ctx, d, h, err, e_total, cfg.max_iter, False, trace)
    raise NoConvergence(
        f"no convergence after {cfg.max_iter} iterations "
        f"(best residual {err:.3e} at iteration {it})",
        best=sol,
    )


def write_trace_csv(path, trace) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("iteration,diis_error,e_total\n")
        for it, err, e_total in trace:
            fh.write(f"{it},{err:.17g},{e_total:.17g}\n")
