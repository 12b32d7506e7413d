"""End-to-end command-line driver tests (in-process, exit-code contract)."""

import csv
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scval import cli, matcore, model, scf, surrogate, validator
from scval.errors import FileFormatError
from scval.systems import chain_geometry, ring_geometry


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared geometry files and a small labeled dataset."""
    base = tmp_path_factory.mktemp("cli")
    ring = base / "ring4.xyz"
    model.dump_geometry(ring, ring_geometry(4, spacing=1.4, n_electrons=2))
    chain = base / "chain6.xyz"
    model.dump_geometry(chain, chain_geometry(6, spacing=1.45, n_electrons=6))
    ds = base / "ds"
    assert cli.main(["gen", str(ring), "--n", "12", "--amplitude", "0.05",
                     "--seed", "3", "--out", str(ds)]) == 0
    return {"base": base, "ring": ring, "chain": chain, "ds": ds}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- exit-code contract ------------------------------------------------------------


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["scf", "--help"], ["md", "--help"],
                 ["validate", "--help"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 0
    assert "--seed" in capsys.readouterr().out


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as err:
        cli.main(["scf", "--frobnicate"])
    assert err.value.code == 1


def test_missing_required_flag_exits_one():
    with pytest.raises(SystemExit) as err:
        cli.main(["validate", "--predictor", "kernel"])
    assert err.value.code == 1


def test_missing_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "absent.xyz"
    assert cli.main(["scf", str(missing), "--out", str(tmp_path)]) == 1
    assert "absent.xyz" in capsys.readouterr().err


def test_unparseable_flag_value_exits_one(work, tmp_path, capsys):
    code = cli.main(["validate", "--dataset", str(work["ds"]),
                     "--predictor", "oracle-noise", "--sigma", "abc",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "float" in capsys.readouterr().err


def test_gated_md_without_threshold_exits_one(work, tmp_path):
    code = cli.main(["md", str(work["ring"]), "--mode", "predictor_corrector",
                     "--steps", "5", "--t-target", "300",
                     "--train", str(work["ds"]), "--out", str(tmp_path)])
    assert code == 1


_EXACT_MD = ["md", "{ring}", "--mode", "exact", "--steps", "2"]


@pytest.mark.parametrize("argv, config, setting", [
    (["scf", "{ring}"], "rep_a = inf", "rep_a"),
    (["scf", "{ring}"], "t0 = nan", "t0"),
    (["scf", "{ring}"], "eps0.B = -inf", "eps0"),
    (["scf", "{ring}"], "scf.tol = nan", "scf.tol"),
    (["scf", "{ring}"], "scf.max_iter = inf", "scf.max_iter"),
    (_EXACT_MD + ["--t-target", "nan"], "", "t_target"),
    (_EXACT_MD + ["--t-target", "300", "--dt", "inf"], "", "dt"),
    (_EXACT_MD + ["--t-target", "300"], "mass = nan", "masses"),
    (["md", "{ring}", "--mode", "predictor_corrector", "--train", "{ds}",
      "--threshold", "nan", "--steps", "2", "--t-target", "300"], "", "threshold"),
    (["gen", "{ring}", "--n", "2", "--amplitude", "nan"], "", "amplitude"),
])
def test_non_finite_settings_exit_one(work, tmp_path, capsys, argv, config,
                                      setting):
    argv = [a.format(ring=work["ring"], ds=work["ds"]) for a in argv]
    if config:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert setting in capsys.readouterr().err


def test_config_key_no_setting_reads_exits_one(work, tmp_path, capsys):
    # A misspelt key used to be dropped silently: this run solved at the
    # default scf.tol = 1e-9 and alpha = 0.7 and exited 0.
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("scf.tolerance = 1e-3\nalpah = 0.5\n")
    code = cli.main(["scf", str(work["ring"]), "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "scf.tolerance" in err and "alpah" in err
    # Every key some setting reads is still accepted.
    cfg.write_text("t0 = 2.5\nalpha = 0.7\neps0 = 0.0\neps0.A = -0.5\n"
                   "hubbard_u.A = 8.0\nq_ref.A = 1.0\nmass = 12.0\n"
                   "mass.A = 10.8\nnorm = frobenius\nscf.tol = 1e-9\n"
                   "scf.max_iter = 300\nscf.damping = 0.3\n"
                   "scf.diis_depth = 8\nscf.diis_start = 2\n")
    assert cli.main(["scf", str(work["ring"]), "--config", str(cfg),
                     "--out", str(tmp_path / "ok")]) == 0


def test_parser_is_built_once_and_calls_do_not_leak(work, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    blobs = []
    for name, extra in (("a", []), ("b", ["--sigma-d", "0.02", "--shared-noise",
                                          "--norm", "mae"]), ("c", [])):
        out = tmp_path / name
        assert cli.main(["validate", "--dataset", str(work["ds"]),
                         "--predictor", "oracle-noise", "--sigma", "0.01",
                         "--seed", "2", "--out", str(out)] + extra) == 0
        blobs.append([(out / f).read_bytes()
                      for f in ("reports.csv", "resolved_config.txt")])
    assert blobs[2] == blobs[0]
    assert blobs[1][0] != blobs[0][0]


# --- scf ---------------------------------------------------------------------------


def test_scf_writes_solution_bundle(work, tmp_path):
    assert cli.main(["scf", str(work["ring"]), "--out", str(tmp_path)]) == 0
    for name in ("H.scvm", "D.scvm", "S.scvm", "summary.txt", "trace.csv",
                 "resolved_config.txt"):
        assert (tmp_path / name).exists(), name
    summary = model.read_config(tmp_path / "summary.txt")
    assert summary["converged"] == 1
    assert summary["n_atoms"] == 4
    h = matcore.read_scvm(tmp_path / "H.scvm")
    np.testing.assert_array_equal(h, h.T)
    assert open(tmp_path / "trace.csv").readline().startswith("iteration,")


def test_scf_nonconvergence_exits_two_with_best_effort(work, tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("scf.max_iter = 3\n")
    code = cli.main(["scf", str(work["chain"]), "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "convergence" in capsys.readouterr().err
    summary = model.read_config(tmp_path / "summary.txt")
    assert summary["converged"] == 0
    assert (tmp_path / "D.scvm").exists()  # best iterate still written


# --- validate / stats pipeline ------------------------------------------------------


def test_zero_noise_reports_zero_error(work, tmp_path):
    code = cli.main(["validate", "--dataset", str(work["ds"]),
                     "--predictor", "oracle-noise", "--sigma", "0",
                     "--out", str(tmp_path)])
    assert code == 0
    reports = validator.read_reports_csv(tmp_path / "reports.csv")
    assert len(reports) == 12
    assert np.all(reports.mae_h == 0.0)
    assert np.all(reports.mae_d == 0.0)
    assert np.all(reports.d_e_total == 0.0)
    assert np.all(reports.self_diis <= 1e-6)
    assert np.all(reports.strict_diis <= 1e-6)


def test_sigma_sweep_feeds_stats(work, tmp_path):
    val = tmp_path / "val"
    code = cli.main(["validate", "--dataset", str(work["ds"]),
                     "--predictor", "oracle-noise",
                     "--sigma", "0.0001,0.001,0.01", "--repeat", "8",
                     "--seed", "1", "--out", str(val)])
    assert code == 0
    rows = read_rows(val / "reports.csv")
    assert len(rows) == 12 * 3 * 8
    assert rows[0]["system"] == "0000:s0:r0"

    st = tmp_path / "stats"
    code = cli.main(["stats", "--reports", str(val / "reports.csv"),
                     "--bins", "8", "--targets", "strict_diis",
                     "--out", str(st)])
    assert code == 0
    summary = {(r["target"], r["statistic"]): r
               for r in read_rows(st / "summary.csv")}
    assert float(summary[("strict_diis", "mean")]["r_squared"]) >= 0.95
    assert (st / "binned_strict_diis.csv").exists()
    plot_rows = read_rows(st / "plotdata_strict_diis.csv")
    assert len(plot_rows) == 12 * 3 * 8


def test_stats_rejects_ragged_or_non_numeric_rows(tmp_path, capsys):
    header = ",".join(validator.REPORT_COLUMNS)
    width = len(validator.REPORT_COLUMNS)
    for row in ("a,b,0.1", ",".join(["a", "b"] + ["0.1"] * (width - 1)),
                ",".join(["a", "b", "wide"] + ["0.1"] * (width - 3))):
        path = tmp_path / "reports.csv"
        path.write_text(f"{header}\n{row}\n")
        code = cli.main(["stats", "--reports", str(path),
                         "--out", str(tmp_path / "st")])
        assert code == 1, row
        assert "reports.csv:2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def reports_csv(work):
    """The bytes of a real 72-row reports.csv (12 entries, 2 sigmas, 3 draws)."""
    out = work["base"] / "val72"
    assert cli.main(["validate", "--dataset", str(work["ds"]),
                     "--predictor", "oracle-noise", "--sigma", "0.001,0.01",
                     "--repeat", "3", "--seed", "5", "--out", str(out)]) == 0
    return (out / "reports.csv").read_bytes()


def _stats(path, out):
    return cli.main(["stats", "--reports", str(path), "--bins", "8",
                     "--out", str(out)])


def test_stats_rejects_non_finite_values(reports_csv, tmp_path, capsys):
    path = tmp_path / "reports.csv"
    path.write_bytes(reports_csv)
    assert _stats(path, tmp_path / "ok") == 0
    lines = reports_csv.decode().splitlines(keepends=True)
    col = validator.REPORT_COLUMNS.index("mae_h")
    for k in (5, 30, 60):
        fields = lines[k].split(",")
        fields[col] = "1e999"
        lines[k] = ",".join(fields)
    path.write_text("".join(lines))
    assert _stats(path, tmp_path / "st") == 2
    assert "3 of 72 'mae_h' values are missing or not finite" in (
        capsys.readouterr().err)


def test_stats_rejects_overflowing_values(reports_csv, tmp_path, capsys):
    # Finite but so large that the fit's sums overflow: exit 2, not a fit.
    lines = reports_csv.decode().splitlines(keepends=True)
    col = validator.REPORT_COLUMNS.index("mae_h")
    for k in (5, 30, 60):
        fields = lines[k].split(",")
        fields[col] = "1e300"
        lines[k] = ",".join(fields)
    path = tmp_path / "reports.csv"
    path.write_text("".join(lines))
    assert _stats(path, tmp_path / "st") == 2
    assert "overflow" in capsys.readouterr().err
    assert not (tmp_path / "st" / "summary.csv").exists()


def test_stats_rejects_non_utf8_reports(reports_csv, tmp_path, capsys):
    path = tmp_path / "reports.csv"
    path.write_bytes(reports_csv[:200] + b"\xff" + reports_csv[200:])
    with pytest.raises(FileFormatError, match="reports.csv"):
        validator.read_reports_csv(path)
    assert _stats(path, tmp_path / "st") == 1
    assert "reports.csv" in capsys.readouterr().err


_MUTATION = st.tuples(
    st.sampled_from(["truncate", "token", "duplicate", "delete", "byte"]),
    st.integers(0, 2**31),
    st.sampled_from([b"nan", b"1e999", b"zz", b'"', b"\x00"]),
)


def _mutate(data, kind, where, token):
    if kind == "truncate":
        return data[:where % (len(data) + 1)]
    if kind == "byte":
        at = where % (len(data) + 1)
        return data[:at] + b"\xff" + data[at:]
    if kind == "token":
        spans = [m.span() for m in re.finditer(rb"[^,\n]+", data)]
        if not spans:
            return data
        a, b = spans[where % len(spans)]
        return data[:a] + token + data[b:]
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    k = where % len(lines)
    if kind == "duplicate":
        return b"".join(lines[:k + 1] + lines[k:])
    return b"".join(lines[:k] + lines[k + 1:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_reports_give_typed_errors(reports_csv, work, mutations):
    # A hostile reports.csv is read or rejected with FileFormatError, and
    # stats exits with a documented code instead of raising.
    data = reports_csv
    for mutation in mutations:
        data = _mutate(data, *mutation)
    path = work["base"] / "fuzz" / "reports.csv"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    try:
        validator.read_reports_csv(path)
    except FileFormatError:
        pass
    assert _stats(path, path.parent / "st") in (0, 1, 2)


_CONFIG = """# model and solver settings
t0 = 2.5
alpha = 0.7
eps0.B = -2.0
hubbard_u = 8
scf.max_iter = 50
scf.diis_depth = 4
scf.tol = 1e-9
mass.B = 10.811
"""

_CONFIG_MUTATION = st.tuples(
    st.sampled_from(["value", "drop_equals", "insert"]),
    st.integers(0, 2**31),
    st.sampled_from(["nan", "inf", "-inf", "zz", "", "\x00"]),
)


def _mutate_config(text, kind, where, token):
    lines = text.splitlines(keepends=True)
    k = where % len(lines)
    if kind == "value" and "=" in lines[k]:
        lines[k] = lines[k].split("=", 1)[0] + "= " + token + "\n"
    elif kind == "drop_equals":
        lines[k] = lines[k].replace("=", " ", 1)
    elif kind == "insert":
        at = where % (len(lines[k]) + 1)
        lines[k] = lines[k][:at] + token + lines[k][at:]
    return "".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutations=st.lists(_CONFIG_MUTATION, min_size=1, max_size=3))
def test_mutated_config_gives_typed_errors(mutations):
    # A hostile config is parsed or rejected with FileFormatError; what it
    # parses to becomes settings or a ValueError, the CLI's exit 1.  The
    # tokens hold no large numbers, so no depth or iteration key is huge.
    text = _CONFIG
    for mutation in mutations:
        text = _mutate_config(text, *mutation)
    try:
        cfg = model.parse_key_values(text)
    except FileFormatError:
        return
    assert all(isinstance(k, str) for k in cfg)
    try:
        model.model_params_from_config(cfg)
        model.masses_from_config(cfg, ("A", "B"))
        cli._scf_config(cfg, "frobenius")
    except ValueError:
        pass


def _validate_external(work, pred, out):
    return cli.main(["validate", "--dataset", str(work["ds"]),
                     "--predictor", "external-file", "--pred", str(pred),
                     "--out", str(out)])


def test_external_labels_validate_to_zero_error(work, tmp_path):
    # A dataset bundle is a prediction bundle of its own labels.
    pred = tmp_path / "pred"
    pred.mkdir()
    for name in ("geometries.xyz", "H.scvm", "D.scvm"):
        shutil.copy(work["ds"] / name, pred / name)
    assert _validate_external(work, pred, tmp_path / "val") == 0
    reports = validator.read_reports_csv(tmp_path / "val" / "reports.csv")
    assert reports.system == [f"{i:04d}" for i in range(12)]
    assert reports.source == ["external-file"] * 12
    assert np.all(reports.mae_h == 0.0)
    assert np.all(reports.mae_d == 0.0)
    assert np.all(reports.self_diis <= scf.ScfConfig().tol)


@pytest.mark.parametrize("case", ["one frame too few", "one atom moved"])
def test_external_bundle_must_match_dataset(work, tmp_path, capsys, case):
    ds = surrogate.load_dataset(work["ds"])
    geometries = [ds.geometry(i) for i in range(len(ds))]
    m = len(ds)
    if case == "one frame too few":
        m, geometries = m - 1, geometries[:-1]
        message = "11 frames for 12 entries"
    else:
        pos = geometries[5].positions.copy()
        pos[2, 1] += 0.01
        geometries[5] = geometries[5].with_positions(pos)
        message = "frame 5 is not the geometry of entry 5"
    frames = map(model.format_xyz_frame, geometries)
    surrogate._write_stack(tmp_path / "pred", frames, {
        "H": ds.hamiltonian[:m], "D": ds.density[:m],
    })
    assert _validate_external(work, tmp_path / "pred", tmp_path / "val") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "val" / "reports.csv").exists()


def test_validate_builds_geometry_terms_once_per_entry(work, tmp_path,
                                                      monkeypatch):
    # All records of an entry share its geometry, so X = S^-1/2 and H0
    # are built once per entry, not once per record, and the entry's
    # records are scored in one stacked full_report call.
    calls = {"loewdin_inverse_sqrt": 0, "build_h0": 0, "full_report": 0}

    def counting(mod, name):
        real = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, name, wrapper)

    counting(matcore, "loewdin_inverse_sqrt")
    counting(model, "build_h0")
    counting(validator, "full_report")
    code = cli.main(["validate", "--dataset", str(work["ds"]),
                     "--predictor", "oracle-noise",
                     "--sigma", "0.001,0.01", "--repeat", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    assert len(read_rows(tmp_path / "reports.csv")) == 12 * 2 * 3
    assert calls == {"loewdin_inverse_sqrt": 12, "build_h0": 12, "full_report": 12}


def test_atoms_too_close_in_bundle_exits_one(work, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(work["ds"], ds)
    lines = (ds / "geometries.xyz").read_text().splitlines(keepends=True)
    lines[3] = lines[2]  # frame 0: atom 0 copied over atom 1
    (ds / "geometries.xyz").write_text("".join(lines))
    code = cli.main(["validate", "--dataset", str(ds),
                     "--predictor", "oracle-noise", "--out", str(tmp_path / "v")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{ds / 'geometries.xyz'}: frame 0: atoms closer than r_min" in err


def test_validate_output_independent_of_jobs(work, tmp_path):
    outs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}"
        code = cli.main(["validate", "--dataset", str(work["ds"]),
                         "--predictor", "oracle-noise",
                         "--sigma", "0.001,0.01", "--repeat", "2",
                         "--seed", "5", "--jobs", jobs, "--out", str(out)])
        assert code == 0
        outs.append((out / "reports.csv").read_bytes())
    assert outs[0] == outs[1]


def test_validate_rerun_is_byte_identical(work, tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["validate", "--dataset", str(work["ds"]),
                         "--predictor", "kernel", "--train", str(work["ds"]),
                         "--k", "4", "--seed", "9", "--out", str(out)])
        assert code == 0
        blobs.append((out / "reports.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_norm_flag_recorded(work, tmp_path):
    code = cli.main(["validate", "--dataset", str(work["ds"]),
                     "--predictor", "oracle-noise", "--sigma", "0.001",
                     "--norm", "mae", "--out", str(tmp_path)])
    assert code == 0
    resolved = (tmp_path / "resolved_config.txt").read_text()
    assert "norm = mae" in resolved
    assert "command = validate" in resolved


# --- grad ---------------------------------------------------------------------------


def test_grad_emits_per_atom_rows(work, tmp_path):
    code = cli.main(["grad", str(work["ring"]), "--train", str(work["ds"]),
                     "--k", "4", "--out", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path / "gradient.csv")
    assert len(rows) == 4
    assert list(rows[0]) == ["atom", "species", "gx", "gy", "gz", "magnitude"]
    for i, row in enumerate(rows):
        assert int(row["atom"]) == i
        vec = np.array([float(row["gx"]), float(row["gy"]), float(row["gz"])])
        assert float(row["magnitude"]) == pytest.approx(
            float(np.linalg.norm(vec)), abs=1e-12
        )


# --- md -----------------------------------------------------------------------------


def test_md_exact_and_zero_threshold_agree(work, tmp_path):
    exact = tmp_path / "exact"
    gated = tmp_path / "gated"
    code = cli.main(["md", str(work["ring"]), "--mode", "exact",
                     "--steps", "20", "--t-target", "300", "--tau", "50",
                     "--seed", "4", "--out", str(exact)])
    assert code == 0
    code = cli.main(["md", str(work["ring"]), "--mode", "predictor_corrector",
                     "--threshold", "0", "--train", str(work["ds"]),
                     "--steps", "20", "--t-target", "300", "--tau", "50",
                     "--seed", "4", "--out", str(gated)])
    assert code == 0
    assert (exact / "trajectory.xyz").read_bytes() == \
        (gated / "trajectory.xyz").read_bytes()
    assert (exact / "summary.txt").read_bytes() == \
        (gated / "summary.txt").read_bytes()
    summary = model.read_config(exact / "summary.txt")
    assert summary["frames"] == 21
    assert summary["diverged"] == 0


def test_md_rerun_is_byte_identical(work, tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["md", str(work["ring"]), "--mode", "surrogate_only",
                         "--train", str(work["ds"]), "--steps", "40",
                         "--t-target", "300", "--seed", "11",
                         "--out", str(out)])
        assert code == 0
        blobs.append((out / "trajectory.xyz").read_bytes()
                     + (out / "steps.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_md_calibrates_threshold_from_training_set(work, tmp_path):
    code = cli.main(["md", str(work["ring"]), "--mode", "predictor_corrector",
                     "--calibrate-percentile", "50", "--train", str(work["ds"]),
                     "--k", "4", "--steps", "10", "--t-target", "300",
                     "--seed", "2", "--out", str(tmp_path)])
    assert code == 0
    resolved = model.read_config(tmp_path / "resolved_config.txt")
    assert resolved["md.calibrate_percentile"] == 50
    assert float(resolved["md.threshold"]) > 0
    rows = read_rows(tmp_path / "steps.csv")
    assert len(rows) == 11
    assert all(math.isfinite(float(r["self_diis"])) for r in rows)


def test_md_initial_solve_failure_exits_two(work, tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("scf.max_iter = 1\n")
    code = cli.main(["md", str(work["chain"]), "--mode", "exact",
                     "--steps", "5", "--t-target", "300",
                     "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "aborted" in capsys.readouterr().err
    summary = (tmp_path / "summary.txt").read_text()
    assert "frames = 0" in summary
    assert "aborted = initial solve failed" in summary
