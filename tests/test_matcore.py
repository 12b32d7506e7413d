"""Linear-algebra kernel: orthogonalizer, eigensolve, density, commutator."""

import math

import struct

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from scval import matcore
from scval.errors import (
    DegenerateInput,
    DimensionMismatch,
    FermiDegeneracy,
    FileFormatError,
    LinearDependence,
)

RT2 = math.sqrt(2.0)


def random_overlap(rng, n):
    # Gram matrix of random vectors, pushed away from singularity.
    a = rng.standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


def random_symmetric(rng, n, scale=1.0):
    return matcore.symmetrize(rng.standard_normal((n, n))) * scale


# --- loewdin_inverse_sqrt ---------------------------------------------------


def test_loewdin_identity():
    np.testing.assert_allclose(matcore.loewdin_inverse_sqrt(np.eye(4)), np.eye(4),
                               atol=1e-14)


def test_loewdin_diagonal():
    x = matcore.loewdin_inverse_sqrt(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(x, np.diag([0.5, 1.0]), atol=1e-14)


def test_loewdin_offdiagonal_matches_eigh_oracle():
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    x = matcore.loewdin_inverse_sqrt(s)
    np.testing.assert_allclose(x @ s @ x, np.eye(2), atol=1e-12)
    # Independent assembly through scipy's eigendecomposition.
    w, u = scipy.linalg.eigh(s)
    np.testing.assert_allclose(x, (u * w**-0.5) @ u.T, atol=1e-13)


def test_loewdin_property_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        s = random_overlap(rng, n)
        x = matcore.loewdin_inverse_sqrt(s)
        np.testing.assert_allclose(x, x.T, atol=1e-12)
        np.testing.assert_allclose(x @ s @ x, np.eye(n), atol=1e-10)


def test_loewdin_rejects_linear_dependence():
    with pytest.raises(LinearDependence):
        matcore.loewdin_inverse_sqrt(np.array([[1.0, 1.0], [1.0, 1.0]]))


# --- gen_eigensolve ----------------------------------------------------------


def test_eigensolve_diagonal():
    sol = matcore.gen_eigensolve(np.diag([-1.0, 2.0]), np.eye(2))
    np.testing.assert_allclose(sol.energies, [-1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(sol.coeffs, np.eye(2), atol=1e-14)


def test_eigensolve_hand_2x2():
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    sol = matcore.gen_eigensolve(h, np.eye(2))
    np.testing.assert_allclose(sol.energies, [-1.0, 1.0], atol=1e-14)
    # Sign convention: first nonzero component positive.
    np.testing.assert_allclose(sol.coeffs[:, 0], [1 / RT2, 1 / RT2], atol=1e-14)
    np.testing.assert_allclose(sol.coeffs[:, 1], [1 / RT2, -1 / RT2], atol=1e-14)


def test_eigensolve_nearest_neighbor_ring():
    # Circulant 6-ring with hop -t has spectrum -2t, -t, -t, t, t, 2t.
    t = 1.7
    h = np.zeros((6, 6))
    for i in range(6):
        h[i, (i + 1) % 6] = h[(i + 1) % 6, i] = -t
    sol = matcore.gen_eigensolve(h, np.eye(6))
    np.testing.assert_allclose(
        sol.energies, [-2 * t, -t, -t, t, t, 2 * t], atol=1e-12
    )


def test_eigensolve_matches_scipy_generalized():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n = int(rng.integers(2, 10))
        h = random_symmetric(rng, n, scale=3.0)
        s = random_overlap(rng, n)
        sol = matcore.gen_eigensolve(h, s)
        ref = scipy.linalg.eigh(h, s, eigvals_only=True)
        np.testing.assert_allclose(sol.energies, ref, atol=1e-10)


def test_eigensolve_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        h = random_symmetric(rng, n, scale=5.0)
        s = random_overlap(rng, n)
        sol = matcore.gen_eigensolve(h, s)
        c = sol.coeffs
        assert np.all(np.diff(sol.energies) >= -1e-12)
        np.testing.assert_allclose(c.T @ s @ c, np.eye(n), atol=1e-10)
        resid = h @ c - s @ c @ np.diag(sol.energies)
        assert np.abs(resid).max() <= 1e-9 * max(1.0, np.abs(h).max())


def test_eigensolve_plain_matches_standard_solver():
    rng = np.random.default_rng(23)
    h = random_symmetric(rng, 7)
    sol = matcore.gen_eigensolve(h, np.eye(7))
    np.testing.assert_allclose(sol.energies, np.linalg.eigvalsh(h), atol=1e-10)


def test_eigensolve_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        matcore.gen_eigensolve(np.eye(3), np.eye(2))


# --- occupations and density -------------------------------------------------


def test_aufbau_basic():
    occ = matcore.aufbau_occupations(np.array([-2.0, -1.0, 0.5, 1.5]), 4)
    np.testing.assert_array_equal(occ, [2.0, 2.0, 0.0, 0.0])


def test_aufbau_rejects_odd_and_overfull():
    levels = np.array([0.0, 1.0])
    with pytest.raises(DegenerateInput):
        matcore.aufbau_occupations(levels, 3)
    with pytest.raises(DegenerateInput):
        matcore.aufbau_occupations(levels, 6)
    with pytest.raises(DegenerateInput):
        matcore.aufbau_occupations(levels, 0)


def test_aufbau_rejects_fermi_degeneracy():
    with pytest.raises(FermiDegeneracy):
        matcore.aufbau_occupations(np.array([-1.0, 0.0, 0.0, 1.0]), 4)


def test_build_density_trivial():
    d = matcore.build_density(np.eye(2), np.array([2.0, 0.0]))
    np.testing.assert_allclose(d, np.diag([2.0, 0.0]), atol=1e-15)


def test_build_density_hand():
    c = np.array([[1 / RT2, 1 / RT2], [1 / RT2, -1 / RT2]])
    d = matcore.build_density(c, np.array([2.0, 0.0]))
    np.testing.assert_allclose(d, np.ones((2, 2)), atol=1e-14)


def test_density_trace_and_idempotency():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        h = random_symmetric(rng, n, scale=4.0)
        s = random_overlap(rng, n)
        sol = matcore.gen_eigensolve(h, s)
        n_e = 2 * int(rng.integers(1, n + 1))
        try:
            occ = matcore.aufbau_occupations(sol.energies, n_e)
        except FermiDegeneracy:
            continue
        d = matcore.build_density(sol.coeffs, occ)
        assert abs(np.trace(d @ s) - n_e) <= 1e-10
        if n_e < 2 * n:   # full shell has occ 2 everywhere too, still fine
            np.testing.assert_allclose(d @ s @ d, 2 * d, atol=1e-8)


def test_build_density_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matcore.build_density(np.eye(3), np.array([2.0, 0.0]))


# --- commutator and norms ----------------------------------------------------


def test_commutator_identity_inputs():
    e = matcore.commutator_error(np.eye(3), np.eye(3), np.eye(3))
    np.testing.assert_array_equal(e, np.zeros((3, 3)))


def test_commutator_ground_state_commutes():
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    d = np.ones((2, 2))
    e = matcore.commutator_error(h, d, np.eye(2))
    np.testing.assert_allclose(e, np.zeros((2, 2)), atol=1e-15)


def test_commutator_hand_value():
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    d = np.diag([2.0, 0.0])
    e = matcore.commutator_error(h, d, np.eye(2))
    np.testing.assert_allclose(e, [[0.0, 2.0], [-2.0, 0.0]], atol=1e-15)
    assert matcore.error_magnitude(e, "frobenius") == pytest.approx(2 * RT2)
    assert matcore.error_magnitude(e, "mae") == pytest.approx(1.0)


def test_commutator_antisymmetric_for_symmetric_inputs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        e = matcore.commutator_error(
            random_symmetric(rng, n), random_symmetric(rng, n),
            random_overlap(rng, n),
        )
        assert np.abs(e + e.T).max() <= 1e-12 * max(1.0, np.abs(e).max())


def test_commutator_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        matcore.commutator_error(np.eye(2), np.eye(3), np.eye(2))


def test_diagonalized_density_always_commutes():
    # D from diagonalizing any symmetric H satisfies e = 0 up to roundoff.
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(4, 11))
        h = random_symmetric(rng, n, scale=3.0)
        s = random_overlap(rng, n)
        sol = matcore.gen_eigensolve(h, s)
        try:
            occ = matcore.aufbau_occupations(sol.energies, 2 * (n // 2))
        except FermiDegeneracy:
            continue
        d = matcore.build_density(sol.coeffs, occ)
        err = matcore.error_magnitude(matcore.commutator_error(h, d, s))
        scale = max(1.0, np.linalg.norm(h) * np.linalg.norm(s))
        assert err <= 1e-9 * scale


def test_error_magnitude_zero_and_homogeneity():
    assert matcore.error_magnitude(np.zeros((3, 3)), "frobenius") == 0.0
    assert matcore.error_magnitude(np.zeros((3, 3)), "mae") == 0.0
    rng = np.random.default_rng(2)
    e = rng.standard_normal((4, 4))
    for norm in ("frobenius", "mae"):
        assert matcore.error_magnitude(-3.5 * e, norm) == pytest.approx(
            3.5 * matcore.error_magnitude(e, norm)
        )


def test_resolve_norm_aliases_and_rejection():
    assert matcore.resolve_norm("fro") == "frobenius"
    assert matcore.resolve_norm("mae") == "elementwise_mae"
    assert matcore.resolve_norm("elementwise_mae") == "elementwise_mae"
    with pytest.raises(ValueError):
        matcore.resolve_norm("spectral")


def test_validate_symmetric():
    m = np.array([[1.0, 2.0], [2.0, 3.0]])
    out = matcore.validate_symmetric(m)
    np.testing.assert_array_equal(out, m)
    with pytest.raises(ValueError):
        matcore.validate_symmetric(np.array([[1.0, 2.0], [0.5, 3.0]]))
    with pytest.raises(ValueError):
        matcore.validate_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        matcore.validate_symmetric(np.zeros((2, 3)))


def test_validate_symmetric_scales_each_matrix_of_a_stack():
    big = np.diag([1e6, 1.0])
    big[0, 1] = 1e-7  # within its own slack of 1e-12 * 1e6
    small = np.eye(2)
    small[0, 1] = 1e-9  # beyond its slack of 1e-12, within big's
    matcore.validate_symmetric(np.stack([big, np.eye(2)]))
    with pytest.raises(ValueError, match="not symmetric"):
        matcore.validate_symmetric(np.stack([big, small]))
    with pytest.raises(DimensionMismatch):
        matcore.validate_symmetric(np.zeros((2, 2, 3)))


# --- scvm file format ---------------------------------------------------------


def test_scvm_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    path = tmp_path / "m.scvm"
    matcore.write_scvm(path, m)
    back = matcore.read_scvm(path)
    np.testing.assert_array_equal(back, m)


def test_scvm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.scvm"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FileFormatError):
        matcore.read_scvm(path)


def test_scvm_rejects_bad_version(tmp_path):
    path = tmp_path / "v9.scvm"
    matcore.write_scvm(path, np.eye(2))
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError):
        matcore.read_scvm(path)


def test_scvm_rejects_truncation(tmp_path):
    path = tmp_path / "t.scvm"
    matcore.write_scvm(path, np.eye(3))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(FileFormatError):
        matcore.read_scvm(path)
    path.write_bytes(raw[:10])
    with pytest.raises(FileFormatError):
        matcore.read_scvm(path)


@pytest.fixture(scope="module")
def scvm_bytes(tmp_path_factory):
    """A real (12, 4) .scvm file, as a 3-entry stack of 4x4 matrices is."""
    path = tmp_path_factory.mktemp("scvm") / "H.scvm"
    matcore.write_scvm(path, np.random.default_rng(5).standard_normal((12, 4)))
    return path.read_bytes()


_SCVM_MUTATION = st.one_of(
    st.tuples(st.just("field"), st.integers(0, 3),
              st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1))),
    st.tuples(st.just("truncate"), st.integers(0, 2**31)),
    st.tuples(st.just("extend"), st.integers(1, 24)),
    st.tuples(st.just("swap")),
)


def _mutate_scvm(data, kind, *args):
    if kind == "field":
        k, value = args
        return data[:4 * k] + value.to_bytes(4, "little") + data[4 * k + 4:]
    if kind == "truncate":
        return data[:args[0] % (len(data) + 1)]
    if kind == "extend":
        return data + b"\x7f" * args[0]
    return data[:8] + data[12:16] + data[8:12] + data[16:]  # rows <-> cols


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations=st.lists(_SCVM_MUTATION, min_size=1, max_size=3))
def test_mutated_scvm_is_read_as_its_header_says_or_rejected(
        scvm_bytes, tmp_path_factory, mutations):
    data = scvm_bytes
    for mutation in mutations:
        data = _mutate_scvm(data, *mutation)
    path = tmp_path_factory.getbasetemp() / "fuzz.scvm"
    path.write_bytes(data)
    try:
        m = matcore.read_scvm(path)
    except FileFormatError:
        return
    rows, cols = struct.unpack_from("<II", data, 8)
    assert m.shape == (rows, cols) and m.dtype == np.float64
