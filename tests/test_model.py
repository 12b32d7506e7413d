"""Tight-binding model: matrix builders, energy functional, file formats."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from scval import matcore, model, scf
from scval.errors import (
    FermiDegeneracy,
    FileFormatError,
    InvalidGeometry,
    NoConvergence,
)
from scval.systems import random_geometry, ring_geometry


def dimer(r, n_electrons=2):
    return model.Geometry(("A", "A"), [[0.0, 0.0, 0.0], [r, 0.0, 0.0]],
                          n_electrons)


def random_valid_geometry(rng, n_atoms):
    # Rejection-sample a box placement until nothing is too close.
    while True:
        pos = rng.uniform(0.0, 2.5, size=(n_atoms, 3))
        try:
            return model.Geometry(("A",) * n_atoms, pos, 2 * (n_atoms // 2))
        except InvalidGeometry:
            continue


# --- geometry validation ------------------------------------------------------


def test_geometry_rejects_close_atoms():
    with pytest.raises(InvalidGeometry):
        dimer(0.2)


def test_geometry_rejects_bad_electron_count():
    with pytest.raises(InvalidGeometry):
        dimer(1.4, n_electrons=5)
    with pytest.raises(InvalidGeometry):
        dimer(1.4, n_electrons=0)


def test_geometry_rejects_nonfinite():
    with pytest.raises(InvalidGeometry):
        model.Geometry(("A",), [[0.0, np.nan, 0.0]], 2)


def test_geometry_rejects_misshapen_positions():
    with pytest.raises(InvalidGeometry, match=r"shape \(2, 2\) does not match 2"):
        model.Geometry(("A", "A"), np.zeros((2, 2)), 2)


def test_with_positions_keeps_metadata():
    g = dimer(1.4)
    g2 = g.with_positions(g.positions + 1.0)
    assert g2.species == g.species
    assert g2.n_electrons == g.n_electrons
    assert g2.n_atoms == 2


# --- matrix builders ----------------------------------------------------------


def test_overlap_single_atom():
    g = model.Geometry(("A",), [[0.0, 0.0, 0.0]], 2)
    np.testing.assert_array_equal(
        model.build_overlap(g, model.ModelParams()), [[1.0]]
    )


def test_overlap_two_atoms_hand_value():
    p = model.ModelParams(alpha=1.0)
    s = model.build_overlap(dimer(1.0), p)
    e1 = math.exp(-1.0)
    np.testing.assert_allclose(s, [[1.0, e1], [e1, 1.0]], atol=1e-15)
    assert s[0, 1] == pytest.approx(0.367879, abs=1e-6)


def test_h0_single_atom_onsite():
    g = model.Geometry(("A",), [[0.0, 0.0, 0.0]], 2)
    p = model.ModelParams(eps0=-5.0)
    np.testing.assert_array_equal(model.build_h0(g, p), [[-5.0]])


def test_h0_hopping_at_reference_distance():
    p = model.ModelParams(t0=2.0)
    h0 = model.build_h0(dimer(p.r0), p)
    assert h0[0, 1] == pytest.approx(-2.0)
    assert h0[1, 0] == pytest.approx(-2.0)
    assert h0[0, 0] == 0.0


def test_h0_ring_matches_circulant_oracle():
    # A regular ring gives a symmetric circulant H0; its spectrum is known
    # in closed form from the chord hoppings.
    n = 6
    p = model.ModelParams()
    g = ring_geometry(n, spacing=p.r0, n_electrons=n)
    h0 = model.build_h0(g, p)

    radius = p.r0 / (2.0 * math.sin(math.pi / n))
    hop = [
        -p.t0 * math.exp(-p.beta * (2.0 * radius * math.sin(math.pi * k / n) - p.r0))
        for k in range(1, n)
    ]
    lam = [
        sum(hop[k - 1] * math.cos(2.0 * math.pi * j * k / n) for k in range(1, n))
        for j in range(n)
    ]
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(h0)), np.sort(lam), atol=1e-12
    )


def test_h0_ring_nearest_neighbor_limit():
    # With a steep hopping decay the farther chords vanish and the
    # classic -2t, -t, -t, t, t, 2t ladder appears.
    p = model.ModelParams(t0=2.5, beta=40.0)
    g = ring_geometry(6, spacing=p.r0, n_electrons=6)
    ev = np.linalg.eigvalsh(model.build_h0(g, p))
    t = p.t0
    np.testing.assert_allclose(ev, [-2 * t, -t, -t, t, t, 2 * t], atol=1e-6)


# --- charges and energy -------------------------------------------------------


def test_mulliken_trivial_cases():
    np.testing.assert_allclose(
        model.mulliken_charges(np.diag([2.0, 0.0]), np.eye(2)), [2.0, 0.0]
    )
    np.testing.assert_allclose(
        model.mulliken_charges(np.ones((2, 2)), np.eye(2)), [1.0, 1.0]
    )


def test_mulliken_sum_equals_trace():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        d = matcore.symmetrize(rng.standard_normal((n, n)))
        s = matcore.symmetrize(rng.standard_normal((n, n))) + 2 * np.eye(n)
        q = model.mulliken_charges(d, s)
        assert q.sum() == pytest.approx(np.trace(d @ s), abs=1e-12)


def test_energy_single_atom_hand_value():
    g = model.Geometry(("A",), [[0.0, 0.0, 0.0]], 2)
    p = model.ModelParams(eps0=-5.0, q_ref=2.0, hubbard_u=7.0)
    assert model.Context(g, p).energy(np.array([[2.0]])) == pytest.approx(-10.0)


def test_energy_reduces_to_band_term():
    rng = np.random.default_rng(9)
    g = random_valid_geometry(rng, 5)
    p = model.ModelParams(hubbard_u=0.0, rep_a=1e-300)
    d = matcore.symmetrize(rng.standard_normal((5, 5)))
    h0 = model.build_h0(g, p)
    assert model.Context(g, p).energy(d) == pytest.approx(np.trace(d @ h0), rel=1e-12)


def test_repulsion_energy_pairwise():
    p = model.ModelParams()
    r = 1.3
    e = model.repulsion_energy(dimer(r), p)
    assert e == pytest.approx(p.rep_a * math.exp(-r / p.rep_rho))


# --- effective hamiltonian ----------------------------------------------------


def test_effective_hamiltonian_u_zero_is_h0():
    rng = np.random.default_rng(12)
    g = random_valid_geometry(rng, 4)
    p = model.ModelParams(hubbard_u=0.0)
    d = matcore.symmetrize(rng.standard_normal((4, 4)))
    np.testing.assert_allclose(
        model.effective_hamiltonian(d, g, p), model.build_h0(g, p), atol=1e-14
    )


def test_effective_hamiltonian_single_atom_hand_value():
    g = model.Geometry(("A",), [[0.0, 0.0, 0.0]], 2)
    p = model.ModelParams(eps0=0.0, q_ref=1.0, hubbard_u=3.0)
    h = model.effective_hamiltonian(np.array([[2.0]]), g, p)
    np.testing.assert_allclose(h, [[3.0]], atol=1e-14)


def fd_energy_gradient(d, g, p, step=1e-5):
    """Symmetrized central difference of energy() w.r.t. each D entry."""
    ctx = model.Context(g, p)
    n = d.shape[0]
    grad = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dp = d.copy()
            dp[i, j] += step
            dm = d.copy()
            dm[i, j] -= step
            grad[i, j] = (ctx.energy(dp) - ctx.energy(dm)) / (2.0 * step)
    return matcore.symmetrize(grad)


def test_effective_hamiltonian_matches_fd_gradient():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        g = random_valid_geometry(rng, n)
        p = model.ModelParams()
        d = matcore.symmetrize(rng.standard_normal((n, n)))
        h = model.effective_hamiltonian(d, g, p)
        num = fd_energy_gradient(d, g, p)
        assert np.abs(h - num).max() <= 1e-5 * max(1.0, np.abs(h).max())


# --- observables ---------------------------------------------------------------


def test_frontier_gap_hand_values():
    ladder = np.array([-5.0, -2.5, -2.5, 2.5, 2.5, 5.0])
    assert model.frontier_gap(ladder, 6) == pytest.approx(5.0)
    assert model.frontier_gap(np.array([-1.0, 1.0]), 2) == pytest.approx(2.0)
    assert model.frontier_gap(np.array([-1.0, 1.0]), 4) == 0.0


def test_gap_invariant_under_spectral_shift():
    rng = np.random.default_rng(33)
    h = matcore.symmetrize(rng.standard_normal((6, 6)))
    s = np.eye(6)
    e1 = matcore.gen_eigensolve(h, s).energies
    e2 = matcore.gen_eigensolve(h + 3.7 * np.eye(6), s).energies
    np.testing.assert_allclose(e2, e1 + 3.7, atol=1e-12)
    assert model.frontier_gap(e2, 4) == pytest.approx(
        model.frontier_gap(e1, 4), abs=1e-12
    )


# --- invariances ----------------------------------------------------------------


def test_translation_invariance():
    rng = np.random.default_rng(40)
    g = random_valid_geometry(rng, 5)
    p = model.ModelParams()
    d = matcore.symmetrize(rng.standard_normal((5, 5)))
    g2 = g.with_positions(g.positions + np.array([1.1, -2.2, 0.7]))
    np.testing.assert_allclose(model.build_overlap(g2, p),
                               model.build_overlap(g, p), atol=1e-12)
    np.testing.assert_allclose(model.build_h0(g2, p),
                               model.build_h0(g, p), atol=1e-12)
    assert model.Context(g2, p).energy(d) == pytest.approx(
        model.Context(g, p).energy(d), abs=1e-12)


def test_rotation_invariance():
    rng = np.random.default_rng(41)
    g = random_valid_geometry(rng, 5)
    p = model.ModelParams()
    d = matcore.symmetrize(rng.standard_normal((5, 5)))
    theta = 0.83
    rot = np.array([
        [math.cos(theta), -math.sin(theta), 0.0],
        [math.sin(theta), math.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    g2 = g.with_positions(g.positions @ rot.T)
    np.testing.assert_allclose(model.build_overlap(g2, p),
                               model.build_overlap(g, p), atol=1e-10)
    np.testing.assert_allclose(model.build_h0(g2, p),
                               model.build_h0(g, p), atol=1e-10)
    assert model.Context(g2, p).energy(d) == pytest.approx(
        model.Context(g, p).energy(d), abs=1e-10)


def test_permutation_equivariance():
    rng = np.random.default_rng(42)
    g = random_valid_geometry(rng, 5)
    p = model.ModelParams()
    perm = np.array([3, 0, 4, 1, 2])
    g2 = model.Geometry(tuple(g.species[i] for i in perm), g.positions[perm],
                        g.n_electrons)
    s = model.build_overlap(g, p)
    np.testing.assert_allclose(model.build_overlap(g2, p),
                               s[np.ix_(perm, perm)], atol=1e-14)
    h0 = model.build_h0(g, p)
    np.testing.assert_allclose(model.build_h0(g2, p),
                               h0[np.ix_(perm, perm)], atol=1e-14)
    d = matcore.symmetrize(rng.standard_normal((5, 5)))
    assert model.Context(g2, p).energy(d[np.ix_(perm, perm)]) == pytest.approx(
        model.Context(g, p).energy(d), abs=1e-12
    )


# --- forces -----------------------------------------------------------------------

TIGHT = scf.ScfConfig(tol=1e-12)
TWO_SPECIES = model.ModelParams(hubbard_u={"A": 8.0, "B": 6.0},
                                eps0={"A": 0.0, "B": -1.0})
FORCE_EXAMPLES = settings(max_examples=20, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.filter_too_much])
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(4, 8)


def fd_position_gradient(energy_of, g, step=1e-5):
    """Central difference of energy_of(geometry) w.r.t. each coordinate."""
    grad = np.zeros((g.n_atoms, 3))
    for i in range(g.n_atoms):
        for a in range(3):
            plus = g.positions.copy()
            plus[i, a] += step
            minus = g.positions.copy()
            minus[i, a] -= step
            grad[i, a] = (energy_of(g.with_positions(plus))
                          - energy_of(g.with_positions(minus))) / (2.0 * step)
    return grad


def tight_solution(g, p):
    try:
        return scf.scf_solve(g, p, TIGHT)
    except (NoConvergence, FermiDegeneracy):
        assume(False)


def frozen_density(sol, rng):
    # Off the fixed point and not even symmetric; E(D), and so the force,
    # sees only the symmetric part.
    return sol.density + 0.05 * rng.standard_normal(sol.density.shape)


@FORCE_EXAMPLES
@given(seed=SEEDS, n_atoms=SIZES)
def test_forces_are_the_negative_energy_gradient(seed, n_atoms):
    rng = np.random.default_rng(seed)
    p = model.ModelParams()
    g = random_geometry(rng, n_atoms)
    sol = tight_solution(g, p)
    f = model.Context(g, p).forces(sol.density, h=sol.hamiltonian)
    fd = -fd_position_gradient(
        lambda q: scf.scf_solve(q, p, TIGHT, d0=sol.density).e_total, g)
    assert np.abs(f - fd).max() <= 1e-6 * max(1.0, np.abs(f).max())

    d = frozen_density(sol, rng)
    f = model.Context(g, p).forces(d)
    fd = -fd_position_gradient(lambda q: model.Context(q, p).energy(d), g)
    assert np.abs(f - fd).max() <= 1e-6 * max(1.0, np.abs(f).max())


@FORCE_EXAMPLES
@given(seed=SEEDS, n_atoms=SIZES)
def test_forces_are_rigid_motion_and_permutation_covariant(seed, n_atoms):
    rng = np.random.default_rng(seed)
    p = TWO_SPECIES
    g = random_geometry(rng, n_atoms, species=("A", "B"))
    sol = tight_solution(g, p)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = q * np.sign(np.diag(r))
    rot *= np.linalg.det(rot)  # proper rotation
    moved = g.with_positions(g.positions @ rot.T + rng.uniform(-5.0, 5.0, 3))
    perm = rng.permutation(n_atoms)
    permuted = model.Geometry([g.species[i] for i in perm], g.positions[perm],
                              g.n_electrons)
    ix = np.ix_(perm, perm)
    for d, h in ((sol.density, sol.hamiltonian),
                 (frozen_density(sol, rng), None)):
        f = model.Context(g, p).forces(d, h=h)
        tol = 1e-10 * max(1.0, np.abs(f).max())
        assert np.abs(f.sum(axis=0)).max() <= tol
        torque = np.cross(g.positions, f).sum(axis=0)
        assert np.abs(torque).max() <= tol * np.abs(g.positions).max()
        np.testing.assert_allclose(model.Context(moved, p).forces(d, h=h),
                                   f @ rot.T, rtol=0, atol=tol)
        np.testing.assert_allclose(
            model.Context(permuted, p).forces(d[ix], None if h is None else h[ix]),
            f[perm], rtol=0, atol=tol)


# --- xyz and config files --------------------------------------------------------


def test_xyz_roundtrip(tmp_path):
    rng = np.random.default_rng(50)
    g = random_valid_geometry(rng, 4)
    path = tmp_path / "g.xyz"
    model.dump_geometry(path, g)
    back = model.load_geometry(path)
    assert back.species == g.species
    assert back.n_electrons == g.n_electrons
    np.testing.assert_array_equal(back.positions, g.positions)


def test_xyz_extra_comment_fields(tmp_path):
    g = dimer(1.4)
    path = tmp_path / "g.xyz"
    model.dump_geometry(path, g, extra={"step": 3, "e_total": -1.25})
    text = path.read_text()
    assert "step=3" in text
    frames = model.parse_xyz_frames(text)
    assert frames[0][1]["e_total"] == "-1.25"


def test_xyz_multi_frame_parse():
    text = model.format_xyz_frame(dimer(1.4)) + model.format_xyz_frame(dimer(1.6))
    frames = model.parse_xyz_frames(text)
    assert len(frames) == 2
    assert frames[1][0].positions[1, 0] == 1.6


def test_xyz_parse_errors():
    with pytest.raises(FileFormatError):
        model.parse_xyz_frames("not-a-count\n")
    with pytest.raises(FileFormatError):
        model.parse_xyz_frames("2\nn_electrons=2\nA 0 0 0\n")  # truncated
    with pytest.raises(FileFormatError):
        model.parse_xyz_frames("1\nno_key_here\nA 0 0 0\n")  # no n_electrons
    with pytest.raises(FileFormatError):
        model.parse_xyz_frames("")


def test_xyz_stack_holds_the_frames_of_parse_xyz_frames():
    text = "".join(model.format_xyz_frame(dimer(r), {"step": k})
                   for k, r in enumerate((1.4, 1.6, 1.5)))
    frames = model.parse_xyz_frames(text)
    stack = model.parse_xyz_stack(text)
    assert stack.species == frames[0][0].species
    assert stack.n_electrons == frames[0][0].n_electrons
    np.testing.assert_array_equal(stack.positions, [g.positions for g, _ in frames])
    assert stack.comments == [meta for _, meta in frames]


@pytest.mark.parametrize("parse", [model.parse_xyz_frames, model.parse_xyz_stack])
@pytest.mark.parametrize("count", ["-2", "0"])
def test_xyz_rejects_a_negative_or_zero_atom_count(parse, count):
    # A negative count would step the frame scan backwards.
    with pytest.raises(FileFormatError):
        parse(f"{count}\nn_electrons=2\nA 0 0 0\nA 0 0 1.4\n")


def test_parse_key_values():
    cfg = model.parse_key_values(
        "t0 = 2.5\n# comment\nscf.tol = 1e-8  # inline\nname = ring\nn = 7\n"
    )
    assert cfg["t0"] == 2.5
    assert cfg["scf.tol"] == 1e-8
    assert cfg["name"] == "ring"
    assert cfg["n"] == 7 and isinstance(cfg["n"], int)
    with pytest.raises(FileFormatError):
        model.parse_key_values("just a line\n")
    with pytest.raises(FileFormatError):
        model.parse_key_values("key =\n")


def test_model_params_from_config_overrides():
    p = model.model_params_from_config(
        {"t0": 3.0, "hubbard_u": 6.0, "hubbard_u.B": 2.0, "eps0.B": -1.5}
    )
    assert p.t0 == 3.0
    np.testing.assert_allclose(p.hubbard_for(("A", "B")), [6.0, 2.0])
    np.testing.assert_allclose(p.eps0_for(("A", "B")), [0.0, -1.5])
    # No overrides at all: plain scalars survive.
    q = model.model_params_from_config({})
    assert q.hubbard_u == 8.0 and q.q_ref == 1.0


def test_masses_from_config():
    m = model.masses_from_config({}, ("A", "A"))
    np.testing.assert_allclose(m, [12.011, 12.011])
    m = model.masses_from_config({"mass": 1.0, "mass.B": 15.999}, ("A", "B"))
    np.testing.assert_allclose(m, [1.0, 15.999])


def test_model_params_validation():
    with pytest.raises(ValueError):
        model.ModelParams(t0=-1.0)
    with pytest.raises(ValueError):
        model.ModelParams(hubbard_u=-0.5)
