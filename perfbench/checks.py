"""Output checks computed independently of scval.

Everything here is plain numpy, written from the documented model:

    S_ij = exp(-alpha r_ij^2),  S_ii = 1
    H0_ij = -t0 exp(-beta (r_ij - r0)),  H0_ii = eps0
    q_i = (D S)_ii,  dq = q - q_ref
    E(D) = tr(D H0) + 1/2 sum_i U dq_i^2 + sum_{i<j} A exp(-r_ij / rho)
    H(D) = dE/dD = H0 + 1/2 S_ij (U dq_i + U dq_j)

with the default parameters of ``scval.model.ModelParams``.  Generalized
eigenproblems go through a Cholesky factor of S, not through the Loewdin
orthogonalizer scval uses.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

T0, BETA, ALPHA, R0 = 2.5, 2.0, 0.7, 1.4
U, EPS0, Q_REF = 8.0, 0.0, 1.0
REP_A, REP_RHO = 500.0, 0.25

# Converged SCF outputs are compared at these tolerances.
H_TOL = 1e-12         # H against H(D), relative to max |H|
TRACE_TOL = 1e-10     # tr(DS) against N_e
IDEMPOTENCY_TOL = 1e-10  # max |DSD - 2D|
AUFBAU_TOL = 1e-7     # max |D - aufbau density of (H, S)|
ENERGY_TOL = 1e-10    # |e_total - E(D)|


def _distances(pos):
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def overlap(pos):
    r = _distances(pos)
    s = np.exp(-ALPHA * r * r)
    np.fill_diagonal(s, 1.0)
    return s


def bare_hamiltonian(pos):
    r = _distances(pos)
    h0 = -T0 * np.exp(-BETA * (r - R0))
    np.fill_diagonal(h0, EPS0)
    return h0


def repulsion(pos):
    r = _distances(pos)
    iu = np.triu_indices(len(pos), k=1)
    return float((REP_A * np.exp(-r[iu] / REP_RHO)).sum())


def hamiltonian_of(d, s, h0):
    udq = U * ((d @ s).diagonal() - Q_REF)
    return h0 + 0.5 * s * (udq[:, None] + udq[None, :])


def energy_of(d, s, h0, pos):
    dq = (d @ s).diagonal() - Q_REF
    return float((d * h0).sum() + 0.5 * U * (dq * dq).sum() + repulsion(pos))


def aufbau_density(h, s, n_electrons):
    """2 C C^T over the lowest N_e/2 solutions of H C = S C e."""
    lower = np.linalg.cholesky(s)
    inv = np.linalg.inv(lower)
    _, v = np.linalg.eigh(inv @ h @ inv.T)
    c = inv.T @ v[:, : n_electrons // 2]
    return 2.0 * c @ c.T


def commutator_norm(h, d, s):
    e = h @ d @ s - s @ d @ h
    return float(np.sqrt((e * e).sum()))


def check_scf_solution(pos, n_electrons, sol, tol):
    """A converged cold solve: H(D), residual, trace, idempotency,
    aufbau filling and the reported energy."""
    problems = []
    s = overlap(pos)
    h0 = bare_hamiltonian(pos)
    d = np.asarray(sol.density)
    h_ref = hamiltonian_of(d, s, h0)
    scale = max(1.0, float(np.abs(h_ref).max()))
    if float(np.abs(np.asarray(sol.hamiltonian) - h_ref).max()) > H_TOL * scale:
        problems.append("hamiltonian differs from H(D)")
    res = commutator_norm(h_ref, d, s)
    if not res <= tol:
        problems.append(f"commutator residual {res:.3e} above {tol:.1e}")
    if not abs(float((d * s).sum()) - n_electrons) <= TRACE_TOL:
        problems.append("tr(DS) differs from the electron count")
    if not float(np.abs(d @ s @ d - 2.0 * d).max()) <= IDEMPOTENCY_TOL:
        problems.append("DSD differs from 2D")
    d_aufbau = aufbau_density(h_ref, s, n_electrons)
    dev = float(np.abs(d - d_aufbau).max())
    if not dev <= AUFBAU_TOL:
        problems.append(f"density is {dev:.3e} from the aufbau density of (H, S)")
    e_ref = energy_of(d, s, h0, pos)
    if not abs(float(sol.e_total) - e_ref) <= ENERGY_TOL * max(1.0, abs(e_ref)):
        problems.append(f"e_total {sol.e_total!r} differs from E(D) = {e_ref!r}")
    return problems


def fixed_point_energy(pos, n_electrons, tol=1e-11, mixing=0.1, max_iter=20000):
    """Total energy at the self-consistent density, by plain linearly
    mixed iteration of D -> aufbau density of (H(D), S)."""
    s = overlap(pos)
    h0 = bare_hamiltonian(pos)
    d = aufbau_density(h0, s, n_electrons)
    for _ in range(max_iter):
        h = hamiltonian_of(d, s, h0)
        if commutator_norm(h, d, s) <= tol:
            return energy_of(d, s, h0, pos)
        d_new = aufbau_density(h, s, n_electrons)
        d = (1.0 - mixing) * d + mixing * d_new
    raise RuntimeError("reference fixed-point iteration did not converge")


def noise_mae(sigma, n):
    """Expected elementwise MAE of sigma * (A + A^T) / 2, A standard normal:
    diagonal entries have deviation sigma, off-diagonal sigma / sqrt(2)."""
    return sigma * math.sqrt(2.0 / math.pi) * (n + (n * n - n) / math.sqrt(2.0)) / (n * n)


# Mean MAE over the records of one sigma against noise_mae.  One record's
# MAE has a relative deviation of 17% for n = 6, so the mean of 512 has
# 0.7%, and this bound sits at more than five standard errors.
MAE_REL_TOL = 0.04
# Median self residual per unit sigma, across sigmas.  Each sigma draws
# its own noise; two medians of 512 records differ by about 2.5%.
LINEARITY_REL_TOL = 0.15


def check_validate_reports(rows, sigmas, n):
    """rows: dicts from reports.csv.  Records are grouped by the sigma
    index in their system name (``entry:sJ:rK``)."""
    problems = []
    groups = {j: [] for j in range(len(sigmas))}
    for row in rows:
        j = int(row["system"].split(":")[1][1:])
        groups[j].append(row)
    per_sigma = []
    for j, sigma in enumerate(sigmas):
        recs = groups[j]
        if not recs:
            problems.append(f"no records for sigma {sigma}")
            continue
        expected = noise_mae(sigma, n)
        for key in ("mae_h", "mae_d"):
            mean = sum(float(r[key]) for r in recs) / len(recs)
            if not abs(mean / expected - 1.0) <= MAE_REL_TOL:
                problems.append(
                    f"mean {key} {mean:.4e} at sigma {sigma} is not "
                    f"{expected:.4e} within {MAE_REL_TOL:.0%}"
                )
        selfs = sorted(float(r["self_diis"]) for r in recs)
        per_sigma.append(selfs[len(selfs) // 2] / sigma)
    if per_sigma and not all(math.isfinite(v) and v > 0 for v in per_sigma):
        problems.append("self residual is not positive and finite")
    elif per_sigma:
        ref = per_sigma[0]
        if any(abs(v / ref - 1.0) > LINEARITY_REL_TOL for v in per_sigma):
            problems.append(
                f"median self residual per sigma {per_sigma} is not constant "
                f"within {LINEARITY_REL_TOL:.0%}"
            )
    return problems


def check_fixed_point_energy(pos, n_electrons, e_total, tol):
    """A corrected MD frame's energy against an independent solve."""
    e_ref = fixed_point_energy(pos, n_electrons)
    if abs(e_total - e_ref) <= tol:
        return []
    return [f"e_total {e_total!r} differs from the fixed-point energy {e_ref!r}"]


def check_md_trajectory(summary, rows, threshold, n_steps):
    """One predictor-corrector trajectory: it ran to its last step, and
    every step's gate decision follows from its self residual."""
    if (summary.get("frames") != n_steps + 1 or summary.get("diverged") != 0
            or summary.get("aborted") != "none"):
        return [f"did not reach its last step: {summary}"]
    problems = []
    if len(rows) != n_steps + 1:
        problems.append(f"{len(rows)} steps recorded, expected {n_steps + 1}")
    for row in rows:
        gated = float(row["self_diis"]) > threshold
        if gated != bool(int(row["corrected"])):
            problems.append(
                f"step {row['step']}: corrected={row['corrected']} but "
                f"self_diis {row['self_diis']} vs threshold {threshold!r}"
            )
            break
    return problems
