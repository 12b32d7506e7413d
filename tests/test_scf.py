"""SCF solver: convergence, fixed-point identities, Anderson mixing."""

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from scval import matcore, model, scf
from scval.errors import NoConvergence, ScvalError
from scval.systems import chain_geometry, random_geometry, ring_geometry

DAMPING_ONLY = scf.ScfConfig(max_iter=20000, damping=0.05, diis_start=10**9)


def density_damping(g, p, beta=0.05, max_iter=10000, tol=1e-11):
    """Independent fixed-point oracle: plain density damping, no acceleration.

    Starts from a density with the reference charges and returns
    (hamiltonians, energy, converged), where hamiltonians holds H(D) of
    every aufbau density D the loop diagonalized its way to.
    """
    ctx = model.Context(g, p)
    # S has a unit diagonal, so this density has Mulliken charges q_ref
    # and H(d) = H0.
    d = np.diag(ctx.q_ref)
    hamiltonians = []
    for _ in range(max_iter):
        energies, coeffs = ctx.orbitals(ctx.effective_hamiltonian(d))
        occ = matcore.aufbau_occupations(energies, g.n_electrons)
        d_new = matcore.build_density(coeffs, occ)
        h_new = ctx.effective_hamiltonian(d_new)
        hamiltonians.append(h_new)
        err = matcore.error_magnitude(matcore.commutator_error(h_new, d_new, ctx.s))
        if err <= tol:
            return hamiltonians, ctx.energy(d_new), True
        d = (1.0 - beta) * d + beta * d_new
    return hamiltonians, None, False


def deque_anderson_inputs(g, p, cfg):
    """Independent mixing oracle: a deque history of charges.

    Runs the Anderson loop on the Mulliken charges with a ``deque`` of
    (residual, damped q) pairs and the Tikhonov-regularized weights of
    the solver, and returns every input Hamiltonian it diagonalized, in
    order, each built from its charges by the written-out formula
    H0 + 1/2 S_ij (U_i dq_i + U_j dq_j).
    """
    ctx = model.Context(g, p)
    q_in, beta = ctx.q_ref, cfg.damping
    hist, inputs = deque(maxlen=cfg.diis_depth), []
    for it in range(1, cfg.max_iter + 1):
        udq = ctx.u * (q_in - ctx.q_ref)
        h_in = ctx.h0 + 0.5 * ctx.s * (udq[:, None] + udq[None, :])
        inputs.append(h_in)
        energies, coeffs = ctx.orbitals(h_in)
        d = matcore.build_density(
            coeffs, matcore.aufbau_occupations(energies, g.n_electrons))
        h = ctx.effective_hamiltonian(d)
        if matcore.error_magnitude(matcore.commutator_error(h, d, ctx.s)) <= cfg.tol:
            return inputs
        q = model.mulliken_charges(d, ctx.s)
        hist.append((q - q_in, q_in + beta * (q - q_in)))
        *older, (last, q_in) = hist
        if it >= cfg.diis_start and older:
            # gamma minimizes |last + sum gamma_k (r_k - last)|^2 plus
            # lam * (mean diagonal of the Gram matrix) |gamma|^2, and the
            # input is q_last + sum gamma_k (q_k - q_last).
            m = len(older)
            diffs = np.stack([r - last for r, _ in older])
            gram = diffs @ diffs.T
            lam = scf.REGULARIZATION[it > scf.HARD_AFTER]
            gram += lam * np.trace(gram) / m * np.eye(m)
            gamma = np.linalg.solve(gram, -(diffs @ last))
            q_in = q_in + gamma @ np.stack([qk - q_in for _, qk in older])
    return inputs


def placed(seed, kind, i):
    """Copy ``i`` of corpus-style geometry ``seed``, moved or permuted.

    ``default_rng(10000 + seed)`` draws 4 rigid motions (a QR rotation
    with its signs fixed to a proper rotation, then a shift in
    [-5, 5)^3), and then 4 atom permutations.
    """
    rng = np.random.default_rng(seed)
    g = random_geometry(rng, int(rng.integers(4, 11)))
    rng = np.random.default_rng(10000 + seed)
    moves = []
    for _ in range(4):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        rot = q * np.sign(np.diag(r))
        rot *= np.linalg.det(rot)
        moves.append(g.positions @ rot.T + rng.uniform(-5.0, 5.0, 3))
    perms = [rng.permutation(g.n_atoms) for _ in range(4)]
    if kind == "rot":
        return g.with_positions(moves[i])
    perm = perms[i]
    return model.Geometry([g.species[j] for j in perm], g.positions[perm],
                          g.n_electrons)


def brute_force_energy(g, p):
    """Energy of the fixed point that 5% density damping reaches."""
    _, e, converged = density_damping(g, p)
    assert converged, "density damping did not converge"
    return e


def test_single_atom_converges_immediately():
    g = model.Geometry(("A",), [[0.0, 0.0, 0.0]], 2)
    sol = scf.scf_solve(g, model.ModelParams())
    assert sol.converged and sol.iterations == 1
    np.testing.assert_allclose(sol.density, [[2.0]], atol=1e-14)
    assert sol.strict_diis == 0.0


def test_u_zero_is_linear_problem():
    g = ring_geometry(6, spacing=1.5, n_electrons=6)
    sol = scf.scf_solve(g, model.ModelParams(hubbard_u=0.0))
    assert sol.converged and sol.iterations == 1
    assert len(sol.trace) == 1


def test_chain_matches_brute_force_oracle():
    # A chain's end atoms force real charge flow, so the loop iterates.
    p = model.ModelParams()
    g = chain_geometry(6, spacing=1.45, n_electrons=6)
    sol = scf.scf_solve(g, p)
    assert sol.converged
    assert sol.iterations > 1
    assert sol.strict_diis <= 1e-9
    assert abs(sol.e_total - brute_force_energy(g, p)) <= 1e-7


def test_converged_invariants_random_geometries():
    rng = np.random.default_rng(8)
    p = model.ModelParams()
    for _ in range(8):
        g = random_geometry(rng, int(rng.integers(4, 9)))
        try:
            sol = scf.scf_solve(g, p)
        except (NoConvergence, matcore.FermiDegeneracy):
            # Skip only what plain damping cannot solve either (geometry 6
            # of this stream); every other geometry must be checked.
            with pytest.raises((NoConvergence, matcore.FermiDegeneracy)):
                scf.scf_solve(g, p, DAMPING_ONLY)
            continue
        s = sol.overlap
        d = sol.density
        # The reported pair satisfies H = H(D) exactly by construction.
        np.testing.assert_allclose(
            sol.hamiltonian, model.effective_hamiltonian(d, g, p),
            atol=1e-14,
        )
        assert abs(np.trace(d @ s) - g.n_electrons) <= 1e-10
        np.testing.assert_allclose(d @ s @ d, 2 * d, atol=1e-8)
        assert sol.strict_diis <= 1e-9
        assert model.Context(g, p).energy(d) == pytest.approx(sol.e_total, abs=1e-10)
        # Fixed-point consistency: re-diagonalizing H reproduces D.
        occ = matcore.aufbau_occupations(sol.energies, g.n_electrons)
        d_back = matcore.build_density(sol.coeffs, occ)
        assert np.abs(d_back - d).max() <= 10 * 1e-9


def test_solver_is_deterministic():
    g = chain_geometry(5, spacing=1.45, n_electrons=4)
    p = model.ModelParams()
    a = scf.scf_solve(g, p)
    b = scf.scf_solve(g, p)
    np.testing.assert_array_equal(a.density, b.density)
    np.testing.assert_array_equal(a.hamiltonian, b.hamiltonian)
    assert a.e_total == b.e_total and a.iterations == b.iterations


def test_anderson_beats_damping():
    rng = np.random.default_rng(14)
    p = model.ModelParams()
    g = random_geometry(rng, 7)
    fast = scf.scf_solve(g, p)
    slow = scf.scf_solve(g, p, DAMPING_ONLY)
    assert fast.converged and slow.converged
    assert len(fast.trace) <= len(slow.trace)
    assert abs(fast.e_total - slow.e_total) <= 1e-7


def test_no_stall_after_reaching_the_basin():
    # The first 60 seeded random geometries that plain damping converges.
    # Damping settles each of them within 440 iterations and the 16 seeds
    # it misses (up to seed 75) oscillate at residuals above 1e-3, so a
    # 2000-iteration screen selects the same corpus as DAMPING_ONLY.
    screen = scf.ScfConfig(max_iter=2000, damping=0.05, diis_start=10**9)
    p = model.ModelParams()
    corpus = []
    seed = 0
    while len(corpus) < 60:
        rng = np.random.default_rng(seed)
        g = random_geometry(rng, int(rng.integers(4, 11)))
        try:
            corpus.append((seed, g, scf.scf_solve(g, p, screen)))
        except NoConvergence:
            pass
        seed += 1
    failed = []
    for seed, g, ref in corpus:
        try:
            sol = scf.scf_solve(g, p)
        except NoConvergence as exc:
            failed.append((seed, exc.best.strict_diis))
            continue
        assert abs(sol.e_total - ref.e_total) <= 1e-7, seed
    assert not failed, failed


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
def test_solution_matches_the_damping_fixed_point_to_solve_tolerance(seed):
    # The tolerance to which converged outputs are reproduced by any
    # mixing scheme that stops at the default commutator tolerance.
    p = model.ModelParams()
    rng = np.random.default_rng(seed)
    g = random_geometry(rng, int(rng.integers(4, 11)))
    hamiltonians, e_ref, converged = density_damping(g, p, tol=1e-12)
    assert converged
    sol = scf.scf_solve(g, p)
    assert abs(sol.e_total - e_ref) <= 1e-10
    assert np.abs(sol.hamiltonian - hamiltonians[-1]).max() <= 1e-8


def test_noconvergence_carries_best_iterate():
    g = chain_geometry(6, spacing=1.45, n_electrons=6)
    p = model.ModelParams()
    cfg = scf.ScfConfig(max_iter=2)
    with pytest.raises(NoConvergence) as info:
        scf.scf_solve(g, p, cfg)
    best = info.value.best
    assert best is not None and not best.converged
    assert best.strict_diis > 1e-9
    assert len(best.trace) == 2


def test_warm_start_converges_faster():
    p = model.ModelParams()
    g = ring_geometry(6, spacing=1.48, n_electrons=6)
    cold = scf.scf_solve(g, p)
    g2 = g.with_positions(g.positions * 1.002)
    warm = scf.scf_solve(g2, p, d0=cold.density)
    cold2 = scf.scf_solve(g2, p)
    assert warm.iterations <= cold2.iterations
    assert abs(warm.e_total - cold2.e_total) <= 1e-7


# --- mixing ----------------------------------------------------------------------


def test_linear_mixing_follows_density_damping(monkeypatch):
    # H is affine in D, so mixing H by beta from H0 visits the same
    # Hamiltonians as damping D by beta from reference charges.
    g = chain_geometry(6, spacing=1.45, n_electrons=6)
    p = model.ModelParams()
    expected, e_ref, converged = density_damping(
        g, p, DAMPING_ONLY.damping, DAMPING_ONLY.max_iter, tol=DAMPING_ONLY.tol
    )
    assert converged
    seen = []
    real = model.Context.response

    def recording(ctx, d):
        out = real(ctx, d)
        seen.append(out[1])
        return out

    monkeypatch.setattr(model.Context, "response", recording)
    sol = scf.scf_solve(g, p, DAMPING_ONLY)
    assert sol.iterations == len(expected)
    # One build per iteration; the returned pair reuses the last one.
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert sol.e_total == pytest.approx(e_ref, abs=1e-12)


def assert_inputs_match_deque_oracle(monkeypatch, g):
    p, cfg = model.ModelParams(), scf.ScfConfig()
    expected = deque_anderson_inputs(g, p, cfg)
    assert len(expected) > cfg.diis_depth + 1
    seen = []
    real = model.Context.orbitals

    def recording(ctx, h):
        seen.append(h)
        return real(ctx, h)

    monkeypatch.setattr(model.Context, "orbitals", recording)
    sol = scf.scf_solve(g, p, cfg)
    # The last orbitals call gives the gap of the returned pair.
    assert sol.iterations == len(expected) == len(seen) - 1
    for got, want in zip(seen, expected):
        assert got.tobytes() == want.tobytes()
    return sol


@pytest.mark.parametrize("seed", [1, 26, 74])
def test_anderson_mixing_matches_a_deque_history(monkeypatch, seed):
    # Corpus systems of 7, 10 and 5 atoms whose solves outlast the
    # history depth, so the stacked history wraps.
    rng = np.random.default_rng(seed)
    assert_inputs_match_deque_oracle(
        monkeypatch, random_geometry(rng, int(rng.integers(4, 11))))


def test_anderson_mixing_past_hard_after_matches_a_deque_history(monkeypatch):
    # A slow solve, so the stronger regularization takes over.
    sol = assert_inputs_match_deque_oracle(monkeypatch, placed(138, "rot", 0))
    assert sol.iterations > scf.HARD_AFTER


# Moved or permuted copies of damping-convergent corpus-style geometries
# on which unregularized Anderson weights diverged: on a near-singular
# history they extrapolate far, and roundoff from the placement tips them.
@pytest.mark.parametrize("seed,kind,i", [
    (74, "perm", 2), (76, "rot", 2), (76, "perm", 2),
    (138, "rot", 0), (138, "rot", 1), (138, "rot", 3),
    (138, "perm", 0), (138, "perm", 1), (138, "perm", 3),
])
def test_converges_however_the_molecule_is_placed(seed, kind, i):
    p = model.ModelParams()
    g = placed(seed, kind, i)
    _, e_ref, converged = density_damping(g, p, max_iter=2000)
    assert converged
    sol = scf.scf_solve(g, p)
    assert sol.converged
    assert abs(sol.e_total - e_ref) <= 1e-7


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("g", [
    # The six-atom ring of the README walkthrough, which symmetry settles
    # in one iteration, and a chain, whose end atoms make it iterate.
    ring_geometry(6, spacing=1.675, n_electrons=6),
    chain_geometry(6, spacing=1.45, n_electrons=6),
], ids=["ring", "chain"])
def test_one_charge_evaluation_per_iteration(monkeypatch, g, warm):
    p = model.ModelParams()
    d0 = None
    if warm:
        d0 = scf.scf_solve(g, p).density
        g = g.with_positions(g.positions * 1.002)
    calls = []
    real = model.mulliken_charges

    def counting(d, s):
        calls.append(1)
        return real(d, s)

    monkeypatch.setattr(model, "mulliken_charges", counting)
    sol = scf.scf_solve(g, p, d0=d0)
    assert sol.converged
    assert len(calls) == sol.iterations + warm


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(seed=st.integers(0, 2**32 - 1), n_atoms=st.integers(4, 10))
def test_converges_wherever_damping_does(seed, n_atoms):
    p = model.ModelParams()
    g = random_geometry(np.random.default_rng(seed), n_atoms)
    try:
        _, e_ref, converged = density_damping(g, p, max_iter=2000)
    except matcore.FermiDegeneracy:
        converged = False
    assume(converged)
    sol = scf.scf_solve(g, p)
    assert sol.converged
    assert abs(sol.e_total - e_ref) <= 1e-7


# --- invariances -----------------------------------------------------------------

SOLVER_EXAMPLES = settings(max_examples=25, deadline=None, derandomize=True,
                           suppress_health_check=[HealthCheck.filter_too_much])


def default_solution(seed, n_atoms):
    rng = np.random.default_rng(seed)
    p = model.ModelParams()
    g = random_geometry(rng, n_atoms)
    try:
        return rng, p, g, scf.scf_solve(g, p)
    except ScvalError:
        assume(False)


@SOLVER_EXAMPLES
@given(seed=st.integers(0, 2**32 - 1), n_atoms=st.integers(4, 10))
def test_solution_is_invariant_under_rigid_motion(seed, n_atoms):
    rng, p, g, sol = default_solution(seed, n_atoms)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = q * np.sign(np.diag(r))
    rot *= np.linalg.det(rot)  # proper rotation
    moved = scf.scf_solve(
        g.with_positions(g.positions @ rot.T + rng.uniform(-5.0, 5.0, 3)), p)
    tol = 1e-9 * max(1.0, abs(sol.e_total))
    assert abs(moved.e_total - sol.e_total) <= tol
    assert abs(moved.strict_diis - sol.strict_diis) <= tol


@SOLVER_EXAMPLES
@given(seed=st.integers(0, 2**32 - 1), n_atoms=st.integers(4, 10))
def test_permuting_atoms_permutes_the_solution(seed, n_atoms):
    rng, p, g, sol = default_solution(seed, n_atoms)
    perm = rng.permutation(n_atoms)
    permuted = scf.scf_solve(
        model.Geometry([g.species[i] for i in perm], g.positions[perm],
                       g.n_electrons), p)
    ix = np.ix_(perm, perm)
    np.testing.assert_allclose(permuted.density, sol.density[ix], rtol=0, atol=1e-8)
    np.testing.assert_allclose(permuted.hamiltonian, sol.hamiltonian[ix],
                               rtol=0, atol=1e-8)


@SOLVER_EXAMPLES
@given(seed=st.integers(0, 2**32 - 1), n_atoms=st.integers(4, 10))
def test_returned_residual_is_antisymmetric_and_within_tol(seed, n_atoms):
    _, _, _, sol = default_solution(seed, n_atoms)
    cfg = scf.ScfConfig()
    e = matcore.commutator_error(sol.hamiltonian, sol.density, sol.overlap)
    np.testing.assert_allclose(e, -e.T, rtol=0, atol=1e-12)
    assert matcore.error_magnitude(e, cfg.norm) == sol.strict_diis <= cfg.tol


# --- trace -----------------------------------------------------------------------


def test_trace_final_entry_converged(tmp_path):
    g = ring_geometry(6, spacing=1.5, n_electrons=6)
    sol = scf.scf_solve(g, model.ModelParams())
    trace = sol.trace
    assert trace[-1][1] <= 1e-9
    assert trace[-1][0] == sol.iterations
    assert trace[-1][2] == pytest.approx(sol.e_total, abs=1e-12)

    path = tmp_path / "trace.csv"
    scf.write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,diis_error,e_total"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[2]) == pytest.approx(trace[0][2])


def test_scf_config_validation():
    with pytest.raises(ValueError):
        scf.ScfConfig(damping=0.0)
    with pytest.raises(ValueError):
        scf.ScfConfig(damping=1.5)
    with pytest.raises(ValueError):
        scf.ScfConfig(diis_depth=1)
    with pytest.raises(ValueError):
        scf.ScfConfig(tol=0.0)
    with pytest.raises(ValueError):
        scf.ScfConfig(norm="nuclear")
