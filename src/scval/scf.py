"""Self-consistent field solver with Anderson mixing of the charges.

H(D) depends on D only through the Mulliken charges q, and affinely, so
the solver mixes charges: each iteration builds its input Hamiltonian
H_in = H(q_in) with ``Context.hamiltonian_of_charges``, fills the aufbau
density D of H_in and banks the charge residual r = q(D) - q_in and the
damped charges q_in + damping r.  The next q_in combines the banked
damped charges with weights that sum to one and minimize the combined
residual (Anderson, J. ACM 12, 547 (1965); Walker & Ni, SIAM J. Numer.
Anal. 49, 1715 (2011)).  With the m older residual rows taken as
differences dR (m, n) to the latest residual r, the weights gamma of the
older rows solve the m x m system (G + lam tr(G)/m I) gamma = -dR r,
G = dR dR^T, and the latest row gets 1 - sum(gamma).  The Tikhonov term
lam keeps the weights bounded on a near-singular history (regularized
nonlinear acceleration: Scieur, d'Aspremont & Bach, Math. Program. 179,
47 (2020)); a zero history keeps plain mixing.  On one banked row this is
plain linear mixing.  The history is two preallocated (diis_depth, n)
arrays, oldest row first: residuals and damped charges.

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

# lam, the Tikhonov weight of the Anderson normal equations relative to
# the mean of their diagonal: REGULARIZATION[0] up to iteration
# HARD_AFTER and REGULARIZATION[1] beyond it.  The small value keeps the
# fast last steps of an ordinary solve; the large one bounds the weights
# of the slow solves that still run after HARD_AFTER iterations, whose
# history is near-singular, so that they converge however the molecule is
# placed.
REGULARIZATION = (1e-10, 1e-4)
HARD_AFTER = 40


@dataclass(frozen=True)
class ScfConfig:
    """Iteration limits and mixing knobs.

    ``damping`` is the weight of the output charges in each linear
    mixing step, q_in + damping (q(D) - q_in); ``diis_depth`` the number
    of recent iterations the regularized Anderson weights combine, and
    ``diis_start`` the first iteration that combines more than the
    latest one.  Setting ``diis_start`` beyond ``max_iter`` gives plain
    linear mixing; since H is affine in q and q in D, that follows the
    Hamiltonians of density damping started from a density with the
    reference charges.  The regularization is a module constant
    (``REGULARIZATION``), not a setting.
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

    Starts from the reference charges (H_in = H0), or from the charges
    of ``d0`` (H_in = H(``d0``)) when a density is given.  Returns a
    solution whose Hamiltonian is H(D) of the final density, so
    H = effective_hamiltonian(D) holds exactly, and whose ``trace``
    records every iteration.  Raises NoConvergence (carrying the best
    iterate) when the budget runs out.
    """
    cfg = cfg or ScfConfig()
    ctx = model.Context(g, p)
    s, beta, depth = ctx.s, cfg.damping, cfg.diis_depth
    q_in = ctx.q_ref if d0 is None else model.mulliken_charges(d0, s)
    # Anderson history, oldest first: residuals and damped charges.
    res_k = np.empty((depth, g.n_atoms))
    q_k = np.empty((depth, g.n_atoms))
    k = 0  # banked rows
    trace = []
    best = None  # (err, d, h, e_total, iteration)

    for it in range(1, cfg.max_iter + 1):
        levels, orbs = ctx.orbitals(ctx.hamiltonian_of_charges(q_in))
        d = (orbs * matcore.aufbau_occupations(levels, g.n_electrons)) @ orbs.T
        d = 0.5 * (d + d.T)
        q, h, e_total = ctx.response(d)
        err = matcore.error_magnitude(h @ d @ s - s @ d @ h, cfg.norm)
        trace.append((it, err, e_total))
        if best is None or err < best[0]:
            best = (err, d, h, e_total, it)
        if err <= cfg.tol:
            return _package(ctx, d, h, err, e_total, it, True, trace)
        if k == depth:
            res_k[:-1] = res_k[1:]
            q_k[:-1] = q_k[1:]
            k -= 1
        res_k[k] = r = q - q_in
        q_in = q_k[k] = q_in + beta * r
        k += 1
        m = k - 1 if it >= cfg.diis_start else 0  # older rows to combine
        if m:
            # Weights gamma of the older rows and 1 - sum(gamma) of the
            # latest; see the module docstring.
            dr = res_k[:m] - r
            gram = dr @ dr.T
            scale = gram.trace()
            if scale > 0.0:
                gram.flat[::m + 1] += REGULARIZATION[it > HARD_AFTER] * scale / m
                gamma = np.linalg.solve(gram, -(dr @ r))
                q_in = q_in + gamma @ (q_k[:m] - q_in)

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
