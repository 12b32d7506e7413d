"""Residual reports: self/strict/mixed errors, gradients, disk formats."""

import csv
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scval import matcore, model, scf, surrogate, validator
from scval.errors import FileFormatError
from scval.rng import substream
from scval.surrogate import Dataset
from scval.systems import chain_geometry

P = model.ModelParams()


def noise_rng(seed):
    return substream(seed, "oracle-noise")


def solved(g):
    return scf.scf_solve(g, P)


def dimer(r):
    return model.Geometry(("A", "A"), [[0.0, 0.0, 0.0], [r, 0.0, 0.0]], 2)


def sym_noise(rng, n, sigma):
    return matcore.symmetrize(rng.standard_normal((n, n))) * sigma


def exact_predictor(p):
    """Predictor that actually solves SCF; the zero-error reference."""

    def predict(g):
        sol = scf.scf_solve(g, p)
        return validator.Prediction(sol.hamiltonian, sol.density, source="exact")

    return predict


def row(table, b):
    """Record b of a report table, one value per column."""
    return tuple(getattr(table, c)[b] for c in validator.REPORT_COLUMNS)


# --- self_diis -------------------------------------------------------------------


def test_self_diis_hand_value():
    pred = validator.Prediction(
        h_pred=np.array([[0.0, -1.0], [-1.0, 0.0]]),
        d_pred=np.diag([2.0, 0.0]),
    )
    assert validator.self_diis(pred, np.eye(2)) == pytest.approx(2 * math.sqrt(2))


def test_self_diis_vanishes_on_converged_pair():
    g = chain_geometry(6, spacing=1.45, n_electrons=6)
    sol = solved(g)
    pred = validator.Prediction(sol.hamiltonian, sol.density, source="exact")
    scale = max(1.0, np.linalg.norm(sol.hamiltonian) * np.linalg.norm(sol.overlap))
    assert validator.self_diis(pred, sol.overlap) <= 1e-9 * scale


def test_self_diis_orthogonal_conjugation_invariance():
    rng = np.random.default_rng(6)
    n = 5
    h = matcore.symmetrize(rng.standard_normal((n, n)))
    d = matcore.symmetrize(rng.standard_normal((n, n)))
    s = matcore.symmetrize(rng.standard_normal((n, n))) + 3 * np.eye(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = validator.self_diis(validator.Prediction(h, d), s)
    b = validator.self_diis(
        validator.Prediction(matcore.symmetrize(q @ h @ q.T),
                             matcore.symmetrize(q @ d @ q.T)),
        q @ s @ q.T,
    )
    assert b == pytest.approx(a, rel=1e-10)


def test_prediction_validation():
    with pytest.raises(ValueError):
        validator.Prediction(np.array([[0.0, 1.0], [0.5, 0.0]]), np.eye(2))
    with pytest.raises(matcore.DimensionMismatch):
        validator.Prediction(np.eye(2), np.eye(3))


def test_prediction_rejects_one_asymmetric_matrix_in_a_stack():
    h = np.stack([np.eye(3)] * 4)
    h[2, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="h_pred is not symmetric"):
        validator.Prediction(h, np.stack([np.eye(3)] * 4))


# --- full_report -------------------------------------------------------------------


def test_full_report_on_label_is_all_zero():
    g = chain_geometry(5, spacing=1.5, n_electrons=4)
    sol = solved(g)
    pred = validator.Prediction(sol.hamiltonian, sol.density, source="exact")
    rep = validator.full_report(pred, sol, model.Context(g, P), system="self")
    assert len(rep) == 1
    assert rep.system == ["self"] and rep.source == ["exact"]
    for name in ("self_diis", "strict_diis", "mixed_hd", "mixed_dh",
                 "mae_h", "mae_d", "d_e_total", "d_gap"):
        assert getattr(rep, name)[0] <= 1e-8


def test_full_report_noisy_density_ordering():
    rng = np.random.default_rng(13)
    g = chain_geometry(5, spacing=1.5, n_electrons=4)
    sol = solved(g)
    pred = validator.Prediction(
        h_pred=sol.hamiltonian,
        d_pred=sol.density + sym_noise(rng, 5, 1e-3),
    )
    rep = validator.full_report(pred, sol, model.Context(g, P))
    # Noisy density breaks both the cross residual and the rebuilt-H one...
    assert rep.mixed_hd[0] > 1e-5
    assert rep.strict_diis[0] > 1e-5
    # ...while H_pred = H_label against the labeled density stays converged.
    assert rep.mixed_dh[0] <= 1e-7
    assert rep.mae_h[0] == 0.0
    assert rep.mae_d[0] > 0.0


def test_self_diis_monotone_in_noise():
    g = chain_geometry(5, spacing=1.5, n_electrons=4)
    sol = solved(g)
    means = []
    for sigma in (1e-4, 1e-3, 1e-2):
        rngs = [noise_rng(k) for k in range(100)]
        pred = surrogate.oracle_noise_predict(sol, sigma, sigma, rngs)
        means.append(np.mean(validator.self_diis(pred, sol.overlap)))
    assert means[0] < means[1] < means[2]


def test_self_diis_tracks_noise_scale():
    g = chain_geometry(5, spacing=1.5, n_electrons=4)
    sol = solved(g)
    rngs = [noise_rng(k) for k in range(50)]
    small = np.mean(validator.self_diis(
        surrogate.oracle_noise_predict(sol, 1e-5, 1e-5, rngs), sol.overlap
    ))
    rngs = [noise_rng(k) for k in range(50)]
    big = np.mean(validator.self_diis(
        surrogate.oracle_noise_predict(sol, 1e-3, 1e-3, rngs), sol.overlap
    ))
    assert 10.0 < big / small < 1000.0


def test_false_negative_diagonalized_wrong_hamiltonian():
    # D built by diagonalizing H_pred commutes with it no matter how wrong
    # H_pred is: self stays at roundoff while the labeled error is huge.
    g = chain_geometry(6, spacing=1.45, n_electrons=6)
    sol = solved(g)
    wrong = sol.hamiltonian + model.build_h0(
        g.with_positions(g.positions * 1.3), P
    )
    eig = matcore.gen_eigensolve(wrong, sol.overlap)
    occ = matcore.aufbau_occupations(eig.energies, g.n_electrons)
    d_wrong = matcore.build_density(eig.coeffs, occ)
    pred = validator.Prediction(wrong, d_wrong)
    rep = validator.full_report(pred, sol, model.Context(g, P))
    scale = max(1.0, np.linalg.norm(wrong) * np.linalg.norm(sol.overlap))
    assert rep.self_diis[0] <= 1e-9 * scale
    assert rep.mae_h[0] > 0.1


@functools.cache
def _chain_label():
    g = chain_geometry(5, spacing=1.5, n_electrons=4)
    return g, solved(g)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    sigmas=st.lists(st.tuples(st.floats(0.0, 0.1), st.floats(0.0, 0.1)),
                    min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    shared=st.booleans(),
    norm=st.sampled_from(["frobenius", "mae"]),
)
def test_stacked_report_equals_separate_reports(sigmas, seed, shared, norm):
    # One pass over B noisy rows gives, bit for bit, the one-row tables of
    # B single-record calls on rows drawn from the same streams.
    g, label = _chain_label()
    ctx = model.Context(g, P)
    sigma_h, sigma_d = zip(*sigmas)
    rows = range(len(sigmas))
    stacked = surrogate.oracle_noise_predict(
        label, sigma_h, sigma_d,
        [substream(seed, "oracle-noise", b) for b in rows], shared_noise=shared,
    )
    reports = validator.full_report(stacked, label, ctx, norm=norm,
                                    system=[f"r{b}" for b in rows])
    assert len(reports) == len(sigmas)
    for b in rows:
        one = surrogate.oracle_noise_predict(
            label, sigma_h[b], sigma_d[b], [substream(seed, "oracle-noise", b)],
            shared_noise=shared,
        )
        single = validator.full_report(
            validator.Prediction(one.h_pred[0], one.d_pred[0], one.source),
            label, model.Context(g, P), norm=norm, system=f"r{b}",
        )
        # repr tells every float apart, -0.0 from 0.0 included.
        assert len(single) == 1
        assert repr(row(single, 0)) == repr(row(reports, b))


# --- position gradient ---------------------------------------------------------------


def test_gradient_of_exact_predictor_is_flat():
    g = dimer(1.5)
    grad = validator.self_diis_position_gradient(
        g, P, exact_predictor(P)
    )
    assert np.abs(grad).max() <= 1e-5


def kernel_predictor_from(geometries):
    sols = [solved(g) for g in geometries]
    col = lambda k: np.stack([getattr(sol, k) for sol in sols])
    ds = Dataset(geometries[0].species, geometries[0].n_electrons,
                 np.stack([g.positions for g in geometries]),
                 col("hamiltonian"), col("density"), col("overlap"),
                 labels={k: col(k) for k in surrogate._LABELS})
    km = surrogate.kernel_fit(ds, k_neighbors=len(geometries))
    return lambda g: surrogate.kernel_predict(km, g)


def scaled_chain(factor):
    # 2x2 homonuclear systems share one eigenbasis with S and never show a
    # residual, so the kernel tests need at least a few atoms.
    g = chain_geometry(4, spacing=1.4, n_electrons=4)
    return g.with_positions(g.positions * factor)


def test_gradient_translation_invariance():
    predictor = kernel_predictor_from(
        [scaled_chain(f) for f in (0.99, 1.0, 1.01)]
    )
    grad = validator.self_diis_position_gradient(scaled_chain(1.005), P,
                                                 predictor)
    # Distance-only predictor: the net gradient over atoms cancels.
    assert np.abs(grad.sum(axis=0)).max() <= 1e-6 * max(1.0, np.abs(grad).max())


def test_gradient_grows_off_training_manifold():
    # Single training entry: the prediction is frozen, so the residual is
    # driven entirely by the overlap of the displaced geometry.  Compressing
    # the first bond steepens S and the gradient norm grows with distance
    # from the training point.
    base = chain_geometry(4, spacing=1.4, n_electrons=4)
    predictor = kernel_predictor_from([base])
    norms = []
    for delta in (0.1, 0.2, 0.3):
        pos = base.positions.copy()
        pos[0, 0] += delta
        grad = validator.self_diis_position_gradient(
            base.with_positions(pos), P, predictor
        )
        norms.append(float(np.linalg.norm(grad)))
    assert norms[0] < norms[1] < norms[2]


def test_scf_predictor_source_tag():
    pred = exact_predictor(P)(dimer(1.5))
    assert pred.source == "exact"


# --- disk formats -----------------------------------------------------------------------


def _write_prediction_bundle(path, geometries, sols):
    surrogate._write_stack(path, map(model.format_xyz_frame, geometries), {
        "H": [sol.hamiltonian for sol in sols],
        "D": [sol.density for sol in sols],
    })


def test_prediction_bundle_roundtrip(tmp_path):
    gs = [chain_geometry(4, spacing=r, n_electrons=4) for r in (1.4, 1.5)]
    sols = [solved(g) for g in gs]
    _write_prediction_bundle(tmp_path, gs, sols)
    frames, stacks = surrogate._read_stack(tmp_path, "HD")
    assert sorted(stacks) == ["D", "H"]
    assert frames.species == gs[0].species
    for pos, g, sol, h, d in zip(frames.positions, gs, sols, stacks["H"],
                                 stacks["D"], strict=True):
        np.testing.assert_array_equal(pos, g.positions)
        np.testing.assert_array_equal(h, sol.hamiltonian)
        np.testing.assert_array_equal(d, sol.density)


def test_prediction_bundle_missing_file(tmp_path):
    with pytest.raises(FileFormatError, match="missing geometries.xyz"):
        surrogate._read_stack(tmp_path, "HD")
    g = chain_geometry(4, spacing=1.5, n_electrons=4)
    _write_prediction_bundle(tmp_path, [g], [solved(g)])
    (tmp_path / "D.scvm").unlink()
    with pytest.raises(FileFormatError, match="missing D.scvm"):
        surrogate._read_stack(tmp_path, "HD")


def test_prediction_bundle_shape_mismatch(tmp_path):
    g = chain_geometry(4, spacing=1.5, n_electrons=4)
    _write_prediction_bundle(tmp_path, [g], [solved(g)])
    model.dump_geometry(tmp_path / "geometries.xyz", dimer(1.4))
    with pytest.raises(FileFormatError, match="shape"):
        surrogate._read_stack(tmp_path, "HD")
    surrogate._write_stack(tmp_path, map(model.format_xyz_frame, [g, dimer(1.4)]),
                           {})
    with pytest.raises(FileFormatError, match="frames differ in atom count"):
        surrogate._read_stack(tmp_path, "HD")


def test_reports_csv_roundtrip(tmp_path):
    g = chain_geometry(4, spacing=1.5, n_electrons=4)
    sol = solved(g)
    rng = np.random.default_rng(1)
    full = validator.full_report(
        validator.Prediction(sol.hamiltonian,
                             sol.density + sym_noise(rng, 4, 1e-3)),
        sol, model.Context(g, P), system="a",
    )
    # A label-free record: only the self residual is known.
    bare_self = validator.self_diis(
        validator.Prediction(sol.hamiltonian, sol.density), sol.overlap
    )
    nan = np.array([math.nan])
    bare = validator.ReportTable(["b"], ["external-file"], np.array([bare_self]),
                                 *[nan] * 7)
    path = tmp_path / "reports.csv"
    validator.write_reports_csv(path, validator.ReportTable.concat([full, bare]))
    back = validator.read_reports_csv(path)
    assert back.system == ["a", "b"]
    assert back.strict_diis[0] == pytest.approx(full.strict_diis[0], rel=1e-15)
    assert back.d_gap[0] == pytest.approx(full.d_gap[0], rel=1e-15)
    assert math.isnan(back.strict_diis[1]) and math.isnan(back.mae_h[1])
    assert back.self_diis[1] == pytest.approx(bare_self, rel=1e-15)

    header = path.read_text().splitlines()[0]
    assert header == ",".join(validator.REPORT_COLUMNS)


def test_reports_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("system,self_diis\nx,1.0\n")
    with pytest.raises(FileFormatError):
        validator.read_reports_csv(path)


def _fmt_field(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def row_loop_reports_csv(path, records):
    """Reference writer: one row per record, None for a missing value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(validator.REPORT_COLUMNS)
        for record in records:
            writer.writerow([_fmt_field(v) for v in record])


_report_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308]),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(
    st.tuples(st.text('ab ,"x:0', max_size=6), st.text('ab ,"x', max_size=4),
              *[_report_floats] * 8),
    min_size=1, max_size=12,
))
def test_reports_csv_matches_row_oracle(tmp_path_factory, records):
    # The column writer gives the bytes of a row loop, NaN as a missing field.
    base = tmp_path_factory.mktemp("reports")
    records = records * (1 + 300 // len(records))  # span several row blocks
    system, source, *values = zip(*records)
    table = validator.ReportTable(list(system), list(source),
                                  *(np.array(v) for v in values))
    validator.write_reports_csv(base / "columns.csv", table)
    row_loop_reports_csv(base / "rows.csv", [
        record[:2] + tuple(None if math.isnan(v) else v for v in record[2:])
        for record in records
    ])
    assert (base / "columns.csv").read_bytes() == (base / "rows.csv").read_bytes()
    back = validator.read_reports_csv(base / "columns.csv")
    assert repr([row(back, b) for b in range(len(back))]) == repr(
        [row(table, b) for b in range(len(table))])
