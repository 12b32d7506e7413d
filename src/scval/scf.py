"""Self-consistent field solver: Anderson mixing of the charges, Newton finish.

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
lam = ``REGULARIZATION`` keeps the weights bounded on a near-singular
history (regularized nonlinear acceleration: Scieur, d'Aspremont & Bach,
Math. Program. 179, 47 (2020)); a zero history keeps plain mixing.  On
one banked row this is plain linear mixing.  The history is two
preallocated (``DEPTH``, n) arrays, oldest row first: residuals and damped
charges.

Anderson mixing is slow over the last decades of the residual, so from
iteration ``diis_start`` on (the first, by default), once max|r| is
below ``NEWTON_BELOW`` and below its value at the last Newton step (if
any), the next q_in is the Newton step q_in + (I - J)^-1 r of the
fixed-point equation q = F(q) instead; the residual then falls
quadratically.  J = dF/dq_in is exact and costs no further solve:
``Context.charge_jacobian`` builds it from the orbitals that gave D (the
charge-response kernel of Niklasson, J. Chem. Phys. 152, 104103 (2020)).
Its eigenvalues make those of I - J at least one, so the solve is never
singular.  The history is banked on every iteration, Newton or not, and
a step whose residual did not fall hands back to Anderson mixing.  Each
``trace`` row ends with how that iteration's q_in was made: "start",
"mix" or "newton".

The stopping test is the Frobenius norm of the commutator residual at
D, whatever norm a caller reports residuals in.  It is taken at D, so
the returned pair keeps H = H(D) exactly and D is always an aufbau
density.  Each solve builds one :class:`model.Context` and takes S, X,
H0, U, q_ref and E_rep from it; one ``Context.response`` call per
iteration gives q, H(D) and E(D) of the new density from a single
Mulliken pass.
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

# The Anderson weights combine the last DEPTH iterations.  lam is the
# Tikhonov weight of their normal equations relative to the mean of their
# diagonal; it bounds the weights on a near-singular history, so that slow
# solves converge however the molecule is placed.
DEPTH = 8
REGULARIZATION = 1e-4

# The charge residual max|r| (charge units) below which the Newton step
# replaces the Anderson combination; see the module docstring.  Far from
# the fixed point the linear response that the step assumes is poor.
# Chosen on random geometries outside the test corpus, one species and
# polar: 0.3 loses no system that 0.05 converges and saves about a fifth
# of the iterations, while 0.5 loses a polar one.
NEWTON_BELOW = 0.3


@dataclass(frozen=True)
class ScfConfig:
    """Iteration limits and mixing knobs.

    A solve stops once the Frobenius norm of its commutator residual
    H D S - S D H is at most ``tol``.  ``damping`` is the weight of the
    output charges in each linear mixing step, q_in + damping (q(D) -
    q_in); ``diis_start`` the first iteration whose residual may make
    the next input a Newton step or an Anderson combination (by default
    the first, so a Newton step may make the input of iteration 2).
    Setting ``diis_start`` beyond ``max_iter`` gives plain linear mixing;
    since H is affine in q and q in D, that follows the Hamiltonians of
    density damping started from a density with the reference charges.
    The history depth, the regularization and the Newton threshold are
    module constants (``DEPTH``, ``REGULARIZATION``, ``NEWTON_BELOW``).
    """

    max_iter: int = 200
    tol: float = 1e-9
    damping: float = 0.3
    diis_start: int = 1

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if not 0 < self.tol < math.inf:  # NaN fails too
            raise ValueError("tol must be positive and finite")


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
    records every iteration as (iteration, residual, e_total, step).
    Raises NoConvergence (carrying the best iterate) when the budget runs
    out.
    """
    cfg = cfg or ScfConfig()
    ctx = model.Context(g, p)
    s, beta = ctx.s, cfg.damping
    q_in = ctx.q_ref if d0 is None else model.mulliken_charges(d0, s)
    # Anderson history, oldest first: residuals and damped charges.
    res_k = np.empty((DEPTH, g.n_atoms))
    q_k = np.empty((DEPTH, g.n_atoms))
    k = 0  # banked rows
    trace = []
    best = None  # (err, d, h, e_total, iteration)
    step = "start"  # how q_in was made
    newton_r = math.inf  # max|r| at the last Newton step

    for it in range(1, cfg.max_iter + 1):
        levels, orbs = ctx.orbitals(ctx.hamiltonian_of_charges(q_in))
        d = (orbs * matcore.aufbau_occupations(levels, g.n_electrons)) @ orbs.T
        d = 0.5 * (d + d.T)
        q, h, e_total = ctx.response(d)
        err = matcore.error_magnitude(h @ d @ s - s @ d @ h)
        trace.append((it, err, e_total, step))
        if best is None or err < best[0]:
            best = (err, d, h, e_total, it)
        if err <= cfg.tol:
            return _package(ctx, d, h, err, e_total, it, True, trace)
        if k == DEPTH:
            res_k[:-1] = res_k[1:]
            q_k[:-1] = q_k[1:]
            k -= 1
        res_k[k] = r = q - q_in
        q_k[k] = damped = q_in + beta * r
        k += 1
        r_max = np.abs(r).max()
        if it >= cfg.diis_start and r_max < min(NEWTON_BELOW, newton_r):
            # Newton's method on q = F(q): F's Jacobian J is exact at the
            # orbitals of H(q_in), and I - J is never singular.
            jac = ctx.charge_jacobian(levels, orbs)
            q_in = q_in + np.linalg.solve(np.eye(g.n_atoms) - jac, r)
            step, newton_r = "newton", r_max
            continue
        q_in, step = damped, "mix"
        m = k - 1 if it >= cfg.diis_start else 0  # older rows to combine
        if m:
            # Weights gamma of the older rows and 1 - sum(gamma) of the
            # latest; see the module docstring.
            dr = res_k[:m] - r
            gram = dr @ dr.T
            scale = gram.trace()
            if scale > 0.0:
                gram.flat[::m + 1] += REGULARIZATION * scale / m
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
    """One row per ``trace`` row; ``step`` is the last column."""
    with open(path, "w", newline="") as fh:
        fh.write("iteration,diis_error,e_total,step\n")
        for it, err, e_total, step in trace:
            fh.write(f"{it},{err:.17g},{e_total:.17g},{step}\n")
