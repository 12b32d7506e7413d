"""Noisy-oracle and kernel predictors plus dataset generation/storage."""

import builtins
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scval import cli, matcore, model, scf, surrogate, validator
from scval.errors import (
    EmptyDataset,
    FileFormatError,
    GenerationExhausted,
    SpeciesMismatch,
)
from scval.rng import substream
from scval.surrogate import Dataset
from scval.systems import chain_geometry

P = model.ModelParams()


def noise_rng(seed):
    return substream(seed, "oracle-noise")


def chain(spacing):
    return chain_geometry(4, spacing=spacing, n_electrons=4)


def labeled(*spacings):
    """The Dataset of the chains at ``spacings``, labeled by their solves."""
    geometries = [chain(s) for s in spacings]
    sols = [scf.scf_solve(g, P) for g in geometries]
    col = lambda k: np.stack([getattr(sol, k) for sol in sols])
    return Dataset(geometries[0].species, geometries[0].n_electrons,
                   np.stack([g.positions for g in geometries]),
                   col("hamiltonian"), col("density"), col("overlap"),
                   labels={k: col(k) for k in surrogate._LABELS})


# --- oracle noise ----------------------------------------------------------------


def test_zero_sigma_returns_label():
    label = scf.scf_solve(chain(1.4), P)
    pred = surrogate.oracle_noise_predict(label, 0.0, 0.0, [noise_rng(1)])
    np.testing.assert_array_equal(pred.h_pred, [label.hamiltonian])
    np.testing.assert_array_equal(pred.d_pred, [label.density])
    assert pred.source == "oracle-noise"


def test_noise_is_seeded():
    label = scf.scf_solve(chain(1.4), P)
    a = surrogate.oracle_noise_predict(label, 1e-3, 1e-3, [noise_rng(4)])
    b = surrogate.oracle_noise_predict(label, 1e-3, 1e-3, [noise_rng(4)])
    c = surrogate.oracle_noise_predict(label, 1e-3, 1e-3, [noise_rng(5)])
    np.testing.assert_array_equal(a.h_pred, b.h_pred)
    np.testing.assert_array_equal(a.d_pred, b.d_pred)
    assert np.abs(a.h_pred - c.h_pred).max() > 0


def test_noise_mae_matches_halfnormal_mean():
    # Symmetrization halves the off-diagonal variance, so the expected
    # elementwise MAE is sigma*sqrt(2/pi)*(n + (n^2-n)/sqrt(2))/n^2.
    label = scf.scf_solve(chain(1.4), P)
    n = label.hamiltonian.shape[0]
    sigma = 1e-3
    rngs = [noise_rng(s) for s in range(1000)]
    pred = surrogate.oracle_noise_predict(label, sigma, 0.0, rngs)
    maes = np.abs(pred.h_pred - label.hamiltonian).mean(axis=(1, 2))
    expected = sigma * math.sqrt(2 / math.pi) * (n + (n * n - n) / math.sqrt(2)) / n**2
    assert np.mean(maes) == pytest.approx(expected, rel=0.2)


def test_shared_noise_correlates_h_and_d():
    label = scf.scf_solve(chain(1.4), P)
    pred = surrogate.oracle_noise_predict(
        label, 1e-3, 1e-2, [noise_rng(9)], shared_noise=True
    )
    dh = (pred.h_pred - label.hamiltonian) / 1e-3
    dd = (pred.d_pred - label.density) / 1e-2
    np.testing.assert_allclose(dh, dd, atol=1e-12)
    indep = surrogate.oracle_noise_predict(label, 1e-3, 1e-2, [noise_rng(9)])
    assert np.abs(indep.d_pred - label.density - 1e-2 * dh).max() > 1e-4


def test_negative_sigma_rejected():
    label = scf.scf_solve(chain(1.4), P)
    with pytest.raises(ValueError):
        surrogate.oracle_noise_predict(label, -1e-3, 0.0, [noise_rng(0)])


# --- dataset generation ----------------------------------------------------------


def test_zero_amplitude_repeats_seed_solution():
    g = chain(1.4)
    seed_sol = scf.scf_solve(g, P)
    ds = surrogate.generate_dataset(g, P, 3, amplitude=0.0, seed=1)
    assert len(ds) == 3
    for i in range(len(ds)):
        np.testing.assert_array_equal(ds.positions[i], g.positions)
        np.testing.assert_array_equal(ds.hamiltonian[i], seed_sol.hamiltonian)


def test_generation_is_deterministic_on_disk(tmp_path):
    g = chain(1.4)
    for name in ("a", "b"):
        ds = surrogate.generate_dataset(g, P, 100, amplitude=0.05, seed=7)
        surrogate.save_dataset(ds, tmp_path / name)
    for path_a in sorted((tmp_path / "a").rglob("*")):
        if path_a.is_dir():
            continue
        path_b = tmp_path / "b" / path_a.relative_to(tmp_path / "a")
        assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


def test_seed_pair_strict_residual_grows_with_amplitude():
    # The seed's (H, D), reused verbatim on perturbed geometries, drifts
    # out of self-consistency as the perturbations widen.
    g = chain(1.4)
    seed_sol = scf.scf_solve(g, P)
    pred = validator.Prediction(seed_sol.hamiltonian, seed_sol.density)
    means = []
    for amplitude in (0.02, 0.05, 0.1):
        ds = surrogate.generate_dataset(g, P, 20, amplitude=amplitude, seed=3)
        vals = [
            validator.full_report(
                pred, ds.label(i), model.Context(ds.geometry(i), P)
            ).strict_diis
            for i in range(len(ds))
        ]
        means.append(float(np.mean(vals)))
    assert means[0] < means[1] < means[2]


def test_md_sample_mode_collects_converged_frames():
    ds = surrogate.generate_dataset(
        chain(1.4), P, 6, mode="md_sample", temperature=300.0, seed=2,
        md_stride=5, md_burnin=50,
    )
    assert len(ds) == 6
    assert ds.metadata["mode"] == "md_sample"
    assert ds.labels["converged"].all()


def test_generation_gives_up_after_too_many_failures():
    with pytest.raises(GenerationExhausted):
        surrogate.generate_dataset(
            chain(1.4), P, 2, scf_cfg=scf.ScfConfig(max_iter=1)
        )


def test_generation_argument_validation():
    with pytest.raises(ValueError):
        surrogate.generate_dataset(chain(1.4), P, 0)
    with pytest.raises(ValueError):
        surrogate.generate_dataset(chain(1.4), P, 2, mode="lhs")


# --- descriptors and kernel regression --------------------------------------------


def test_descriptor_is_sorted_and_permutation_invariant():
    g = chain(1.37)
    d = surrogate.descriptor(g.positions)
    assert d.shape == (g.n_atoms * (g.n_atoms - 1) // 2,)
    assert np.all(np.diff(d) >= 0)
    perm = [2, 0, 3, 1]
    np.testing.assert_allclose(surrogate.descriptor(g.positions[perm]), d,
                               atol=1e-12)


def test_batched_descriptors_equal_a_per_geometry_loop():
    positions = np.random.default_rng(7).uniform(-2.0, 2.0, size=(37, 6, 3))
    batch = surrogate.descriptor(positions)
    assert batch.shape == (37, 15)
    # A non-contiguous stack would change the order of kernel_predict's
    # row sums, and with it the last bits of every prediction.
    assert batch.flags.c_contiguous
    iu = np.triu_indices(6, k=1)
    for pos, row in zip(positions, batch, strict=True):
        diff = pos[:, None, :] - pos[None, :, :]
        r = np.sqrt((diff * diff).sum(axis=-1))
        np.testing.assert_array_equal(row, np.sort(r[iu]))
        np.testing.assert_array_equal(surrogate.descriptor(pos), row)


def test_training_point_recalled_exactly_with_k1():
    ds = labeled(1.3, 1.4, 1.5)
    km = surrogate.kernel_fit(ds, k_neighbors=1)
    pred = surrogate.kernel_predict(km, ds.geometry(1))
    np.testing.assert_array_equal(pred.h_pred, ds.hamiltonian[1])
    np.testing.assert_array_equal(pred.d_pred, ds.density[1])
    assert pred.source == "kernel"


def test_equidistant_query_averages_the_pair():
    # Spacings 1.25/1.75 put the 1.5 chain exactly midway in descriptor
    # space, so the two Gaussian weights tie at 1/2.
    ds = labeled(1.25, 1.75)
    km = surrogate.kernel_fit(ds, k_neighbors=2)
    pred = surrogate.kernel_predict(km, chain(1.5))
    np.testing.assert_allclose(
        pred.h_pred, 0.5 * (ds.hamiltonian[0] + ds.hamiltonian[1]), atol=1e-14,
    )
    np.testing.assert_allclose(
        pred.d_pred, 0.5 * (ds.density[0] + ds.density[1]), atol=1e-14
    )


def test_duplicated_dataset_renormalizes_to_same_prediction():
    km1 = surrogate.kernel_fit(labeled(1.25, 1.75), bandwidth=0.5,
                               k_neighbors=2)
    km2 = surrogate.kernel_fit(labeled(1.25, 1.75, 1.25, 1.75), bandwidth=0.5,
                               k_neighbors=4)
    q = chain(1.31)
    p1 = surrogate.kernel_predict(km1, q)
    p2 = surrogate.kernel_predict(km2, q)
    np.testing.assert_allclose(p1.h_pred, p2.h_pred, atol=1e-12)
    np.testing.assert_allclose(p1.d_pred, p2.d_pred, atol=1e-12)


def test_duplicate_entries_still_get_positive_bandwidth():
    km = surrogate.kernel_fit(labeled(1.25, 1.25, 1.75), k_neighbors=3)
    assert km.bandwidth > 0
    assert np.isfinite(km.bandwidth)


def test_kernel_defaults_clamped():
    ds = labeled(1.3, 1.5)
    km = surrogate.kernel_fit(ds, k_neighbors=8)
    assert km.k_neighbors == 2
    with pytest.raises(ValueError):
        surrogate.kernel_fit(ds, k_neighbors=0)
    with pytest.raises(ValueError):
        surrogate.kernel_fit(ds, bandwidth=-1.0)


def test_kernel_prediction_symmetric_and_deterministic():
    ds = surrogate.generate_dataset(chain(1.4), P, 10, amplitude=0.04, seed=8)
    km = surrogate.kernel_fit(ds, k_neighbors=4)
    q = chain(1.43)
    p1 = surrogate.kernel_predict(km, q)
    p2 = surrogate.kernel_predict(km, q)
    np.testing.assert_array_equal(p1.h_pred, p2.h_pred)
    np.testing.assert_array_equal(p1.h_pred, p1.h_pred.T)
    np.testing.assert_array_equal(p1.d_pred, p1.d_pred.T)


def test_kernel_rejects_mismatched_query():
    km = surrogate.kernel_fit(labeled(1.4))
    bad = model.Geometry(("A", "A", "A", "A"), chain(1.4).positions, 2)
    with pytest.raises(SpeciesMismatch):
        surrogate.kernel_predict(km, bad)


def test_interpolation_breaks_self_consistency():
    # Matrix-space averaging of two distinct converged pairs is not a
    # converged pair; the residual has to see it.
    km = surrogate.kernel_fit(labeled(1.25, 1.75), k_neighbors=2)
    q = chain(1.5)
    pred = surrogate.kernel_predict(km, q)
    s = model.build_overlap(q, P)
    assert validator.self_diis(pred, s) > 1e-3
    d = pred.d_pred
    assert np.abs(d @ s @ d - 2 * d).max() > 1e-3


def test_far_query_exceeds_in_distribution_p95():
    train = surrogate.generate_dataset(chain(1.4), P, 30, amplitude=0.03, seed=5)
    km = surrogate.kernel_fit(train, k_neighbors=8)
    probe = surrogate.generate_dataset(chain(1.4), P, 30, amplitude=0.03, seed=6)
    in_dist = [
        validator.self_diis(
            surrogate.kernel_predict(km, probe.geometry(i)), probe.overlap[i]
        )
        for i in range(len(probe))
    ]
    compressed = chain(1.4).with_positions(chain(1.4).positions * 0.8)
    far = validator.self_diis(
        surrogate.kernel_predict(km, compressed),
        model.build_overlap(compressed, P),
    )
    assert far > np.percentile(in_dist, 95)


def test_leave_one_out_reports_finite_errors():
    ds = surrogate.generate_dataset(chain(1.4), P, 30, amplitude=0.04, seed=12)
    loo = surrogate.kernel_loo(ds, k_neighbors=8)
    assert set(loo) == {"self_diis", "mae_h", "mae_d"}
    for values in loo.values():
        assert values.shape == (30,)
        assert np.isfinite(values).all()
        assert (values > 0).all()


def test_leave_one_out_builds_the_distance_matrix_once(monkeypatch):
    ds = surrogate.generate_dataset(chain(1.4), P, 12, amplitude=0.04, seed=12)
    calls = []
    real = surrogate._descriptor_distances

    def counting(desc):
        calls.append(len(desc))
        return real(desc)

    monkeypatch.setattr(surrogate, "_descriptor_distances", counting)
    picked = surrogate.kernel_loo(ds, k_neighbors=4)
    assert calls == [12]
    monkeypatch.undo()
    # The bandwidth it picks is kernel_fit's, and the arrays are those of
    # a run given that bandwidth, bit for bit.
    bandwidth = surrogate.kernel_fit(ds).bandwidth
    given_bw = surrogate.kernel_loo(ds, bandwidth=bandwidth, k_neighbors=4)
    for key in ("self_diis", "mae_h", "mae_d"):
        np.testing.assert_array_equal(picked[key], given_bw[key], key)


def test_descriptor_distances_match_the_full_tensor():
    # 150 rows span two full blocks and a partial one; every entry must be
    # the same sum as in the one-tensor form, bit for bit.
    desc = np.random.default_rng(3).standard_normal((150, 15))
    full = np.sqrt(((desc[:, None, :] - desc[None, :, :]) ** 2).sum(-1))
    np.testing.assert_array_equal(surrogate._descriptor_distances(desc), full)


def test_descriptor_distances_memory_is_bounded():
    # One (2000, 2000, 15) float64 difference tensor is 480 MB; the blocked
    # form holds the (2000, 2000) result plus one block at a time.
    desc = np.random.default_rng(4).standard_normal((2000, 15))
    tracemalloc.start()
    try:
        surrogate._descriptor_distances(desc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120e6, f"peak {peak / 1e6:.0f} MB"


def test_leave_one_out_needs_two_entries():
    with pytest.raises(EmptyDataset):
        surrogate.kernel_loo(labeled(1.4))


# --- disk layout -----------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    ds = surrogate.generate_dataset(chain(1.4), P, 5, amplitude=0.05, seed=4)
    surrogate.save_dataset(ds, tmp_path / "ds")
    back = surrogate.load_dataset(tmp_path / "ds")
    assert len(back) == len(ds)
    assert back.metadata["mode"] == "random_perturb"
    assert back.metadata["seed"] == 4
    assert back.species == ds.species
    for i in range(len(ds)):
        orig, loaded = ds.label(i), back.label(i)
        np.testing.assert_array_equal(loaded.hamiltonian, orig.hamiltonian)
        np.testing.assert_array_equal(loaded.density, orig.density)
        np.testing.assert_array_equal(loaded.overlap, orig.overlap)
        assert loaded.e_total == orig.e_total
        assert loaded.converged
        # Eigenvectors are solved from (H, S) on first read.
        c, s = loaded.coeffs, loaded.overlap
        np.testing.assert_allclose(c.T @ s @ c, np.eye(len(c)), atol=1e-10)


def test_loaded_dataset_predicts_like_original(tmp_path):
    ds = surrogate.generate_dataset(chain(1.4), P, 8, amplitude=0.04, seed=10)
    surrogate.save_dataset(ds, tmp_path / "ds")
    back = surrogate.load_dataset(tmp_path / "ds")
    km1 = surrogate.kernel_fit(ds, k_neighbors=4)
    km2 = surrogate.kernel_fit(back, k_neighbors=4)
    assert km1.bandwidth == km2.bandwidth
    np.testing.assert_array_equal(km1.descriptors, km2.descriptors)
    assert km2.descriptors.flags.c_contiguous
    for q in (chain(1.42), chain(1.37), ds.geometry(3)):
        p1 = surrogate.kernel_predict(km1, q)
        p2 = surrogate.kernel_predict(km2, q)
        np.testing.assert_array_equal(p1.h_pred, p2.h_pred)
        np.testing.assert_array_equal(p1.d_pred, p2.d_pred)


def test_manifest_format_line(tmp_path):
    ds = surrogate.generate_dataset(chain(1.4), P, 2, amplitude=0.02, seed=1)
    surrogate.save_dataset(ds, tmp_path / "ds")
    first = (tmp_path / "ds" / "manifest.txt").read_text().splitlines()[0]
    assert first == "format = scval-dataset-v2"


def test_load_missing_manifest(tmp_path):
    with pytest.raises(FileFormatError):
        surrogate.load_dataset(tmp_path)


@pytest.mark.parametrize("mode", ["random_perturb", "md_sample"])
def test_bundle_roundtrip_is_bit_exact(tmp_path, mode):
    ds = surrogate.generate_dataset(
        chain(1.4), P, 6, mode=mode, amplitude=0.05, seed=2,
        md_stride=5, md_burnin=50,
    )
    surrogate.save_dataset(ds, tmp_path / "ds")
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
        "D.scvm", "H.scvm", "S.scvm", "geometries.xyz", "manifest.txt"
    ]
    back = surrogate.load_dataset(tmp_path / "ds")
    assert back.metadata["n_entries"] == 6
    assert len(back) == len(ds)
    for i in range(len(ds)):
        np.testing.assert_array_equal(back.geometry(i).positions,
                                      ds.geometry(i).positions)
        orig, loaded = ds.label(i), back.label(i)
        for name in ("hamiltonian", "density", "overlap", "e_total", "gap",
                     "strict_diis", "iterations", "converged"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(orig, name), name)
        assert type(loaded.converged) is bool


def test_load_opens_a_fixed_number_of_files(tmp_path, monkeypatch):
    # One manifest, one frame file and one stack per matrix kind, however
    # many entries the dataset holds.
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    counts = []
    for m in (2, 40):
        surrogate.save_dataset(labeled(*[1.4] * m), tmp_path / str(m))
        opened.clear()
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)  # pathlib's read_text
        assert len(surrogate.load_dataset(tmp_path / str(m))) == m
        monkeypatch.undo()
        counts.append(len(opened))
    assert counts == [5, 5], opened


def test_load_and_fit_build_no_per_entry_objects(tmp_path, monkeypatch):
    # The loader and the fit work on the stacks: how many Geometry
    # objects they build does not grow with the number of entries.
    real = model.Geometry.__post_init__
    counts = []
    for m in (2, 40):
        surrogate.save_dataset(labeled(*[1.4] * m), tmp_path / str(m))
        built = []

        def counting(self):
            built.append(1)
            real(self)

        monkeypatch.setattr(model.Geometry, "__post_init__", counting)
        surrogate.kernel_fit(surrogate.load_dataset(tmp_path / str(m)))
        monkeypatch.undo()
        counts.append(len(built))
    assert counts[0] == counts[1], counts


def _drop_last_row(path):
    matcore.write_scvm(path / "H.scvm", matcore.read_scvm(path / "H.scvm")[:-1])


def _add_column(path):
    d = matcore.read_scvm(path / "D.scvm")
    matcore.write_scvm(path / "D.scvm", np.hstack([d, np.zeros((len(d), 1))]))


def _edit(name, pattern, repl):
    def corrupt(path):
        text = (path / name).read_text()
        (path / name).write_text(re.sub(pattern, repl, text, count=1))

    return corrupt


def _edit_line(index, pattern, repl):
    # In the 3-frame bundle of 4-atom chains, frame k starts at line 6k:
    # atom count, comment line, then atoms 0 to 3.
    def corrupt(path):
        lines = (path / "geometries.xyz").read_text().splitlines(keepends=True)
        lines[index] = re.sub(pattern, repl, lines[index], count=1)
        (path / "geometries.xyz").write_text("".join(lines))

    return corrupt


def _copy_atom_line(path):
    lines = (path / "geometries.xyz").read_text().splitlines(keepends=True)
    lines[15] = lines[14]  # atom 1 of frame 2 onto atom 0
    (path / "geometries.xyz").write_text("".join(lines))


_HOSTILE = {
    "stack rows": (_drop_last_row, "H.scvm: shape"),
    "stack columns": (_add_column, "D.scvm: shape"),
    "frame count": (_edit("manifest.txt", r"n_entries = 3", "n_entries = 4"),
                    "n_entries"),
    "missing e_total": (_edit("geometries.xyz", r"e_total=\S+ ", ""),
                        "frame 0 lacks 'e_total'"),
    "non-numeric gap": (_edit("geometries.xyz", r"gap=\S+", "gap=wide"),
                        "frame 0: could not convert string to float: 'wide'"),
    "v1 manifest": (_edit("manifest.txt", "v2", "v1"), "regenerate it with `scval gen`"),
    "missing S": (lambda path: (path / "S.scvm").unlink(), "missing S.scvm"),
    "bytes not UTF-8": (lambda path: (path / "geometries.xyz").write_bytes(b"\xff"),
                        "geometries.xyz: 'utf-8' codec can't decode"),
    "species differs": (_edit_line(9, r"^A", "B"),
                        "geometries.xyz: frame 1: species or electron count"),
    "electron count differs": (_edit_line(7, r"n_electrons=4", "n_electrons=2"),
                               "geometries.xyz: frame 1: species or electron count"),
    "NaN coordinate": (_edit_line(15, r"\S+$", "nan"),
                       "geometries.xyz: frame 2: positions contain non-finite"),
    "atoms too close": (_copy_atom_line,
                        "geometries.xyz: frame 2: atoms closer than r_min"),
}


@pytest.fixture
def bundle(tmp_path):
    ds = surrogate.generate_dataset(chain(1.4), P, 3, amplitude=0.02, seed=5)
    surrogate.save_dataset(ds, tmp_path / "ds")
    return tmp_path / "ds"


@pytest.mark.parametrize("case", sorted(_HOSTILE))
def test_hostile_bundle_raises_file_format_error(bundle, case):
    corrupt, message = _HOSTILE[case]
    corrupt(bundle)
    with pytest.raises(FileFormatError, match=re.escape(message)):
        surrogate.load_dataset(bundle)


def test_hostile_bundle_exits_one(bundle, tmp_path, capsys):
    _HOSTILE["missing e_total"][0](bundle)
    code = cli.main(["validate", "--dataset", str(bundle),
                     "--predictor", "oracle-noise", "--out", str(tmp_path / "v")])
    assert code == 1
    assert "lacks 'e_total'" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["species differs", "electron count differs"])
def test_mismatched_frame_exits_one(bundle, tmp_path, capsys, case):
    _HOSTILE[case][0](bundle)
    code = cli.main(["validate", "--dataset", str(bundle),
                     "--predictor", "oracle-noise", "--out", str(tmp_path / "v")])
    assert code == 1
    assert f"{bundle / 'geometries.xyz'}: frame 1: " in capsys.readouterr().err


@pytest.mark.parametrize("loader", ["load_geometry", "load_dataset"])
@pytest.mark.parametrize("field", ["coordinate", "n_electrons"])
def test_non_numeric_field_names_path_and_line(bundle, field, loader):
    # In frame 0, n_electrons sits on line 2 and atom 1 on line 4.
    xyz = bundle / "geometries.xyz"
    lines = xyz.read_text().splitlines(keepends=True)
    if field == "coordinate":
        line = 4
        lines[3] = lines[3].rsplit(" ", 1)[0] + " zz\n"
    else:
        line = 2
        lines[1] = re.sub(r"n_electrons=\d+", "n_electrons=four", lines[1])
    xyz.write_text("".join(lines))
    with pytest.raises(FileFormatError, match=re.escape(f"{xyz}:{line}: ")):
        if loader == "load_geometry":
            model.load_geometry(xyz)
        else:
            surrogate.load_dataset(bundle)


# --- fuzzed frame file -----------------------------------------------------------

_JUNK = ("", "x", "-1", "0", "7", "nan", "inf", "1e999", "1e300", "=", "B",
         "n_electrons=", "n_electrons=x", "gap=", "99999999999999999999")
_MUTATION = st.tuples(
    st.sampled_from(("truncate", "junk", "duplicate", "delete")),
    st.integers(0, 2**16), st.integers(0, 2**16), st.sampled_from(_JUNK),
)


def _mutate(text, op, a, b, junk):
    """Truncate ``text``, swap one token for junk, or duplicate or delete a line."""
    if op == "truncate":
        return text[: a % (len(text) + 1)]
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    k = a % len(lines)
    if op == "delete":
        del lines[k]
    elif op == "duplicate":
        lines.insert(k, lines[k])
    else:
        tokens = lines[k].rstrip("\n").split(" ")
        tokens[b % len(tokens)] = junk
        lines[k] = " ".join(tokens) + "\n"
    return "".join(lines)


@pytest.fixture(scope="module")
def fuzz_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ds"
    ds = surrogate.generate_dataset(chain(1.4), P, 3, amplitude=0.02, seed=5)
    surrogate.save_dataset(ds, path)
    return path, (path / "geometries.xyz").read_text()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_frames_raise_only_file_format_error(fuzz_bundle, mutations):
    path, text = fuzz_bundle
    for mutation in mutations:
        text = _mutate(text, *mutation)
    (path / "geometries.xyz").write_text(text)
    try:
        surrogate.load_dataset(path)
    except FileFormatError:
        pass
