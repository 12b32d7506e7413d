"""Ten end-to-end checks covering the package's headline claims.

Each test prints one scorecard line (``ACCEPTANCE nn PASS/FAIL``) so a full
run reads as a ten-point summary; assertion messages carry the measured
numbers for the failing case.
"""

import csv

import numpy as np
import pytest
from scipy.stats import spearmanr

from scval import (
    cli,
    errors,
    matcore,
    mdsim,
    model,
    scf,
    stats,
    surrogate,
    validator,
)
from scval.mdsim import EV_PER_AMU_A2_FS2, KB_EV_PER_K, MdConfig
from scval.rng import substream
from scval.systems import chain_geometry, ring_geometry
from test_matcore import build_density
from test_model import fd_energy_gradient, random_valid_geometry
from test_scf import brute_force_energy

P = model.ModelParams()

# Plain 5% linear mixing, the reference the Anderson acceleration is measured
# against.
DAMPING_ONLY = scf.ScfConfig(max_iter=20000, damping=0.05, diis_start=10**9)


def _verdict(capsys, number, ok, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {text}")


def _perturbed_chain(rng):
    # 0.15 A displacements give chains that damping alone needs hundreds
    # of iterations for, and whose residual history spans many decades
    # before the accelerated solve converges.
    m = int(rng.integers(4, 9))
    g = chain_geometry(m, spacing=1.45, n_electrons=m if m % 2 == 0 else m - 1)
    return g.with_positions(g.positions + rng.uniform(-0.15, 0.15, (m, 3)))


@pytest.fixture(scope="module")
def chain_solutions():
    """Twenty seeded chains, each solved by default and with damping only."""
    rng = np.random.default_rng(202)
    out = []
    for _ in range(20):
        g = _perturbed_chain(rng)
        out.append((g, scf.scf_solve(g, P), scf.scf_solve(g, P, DAMPING_ONLY)))
    return out


@pytest.fixture(scope="module")
def noise_sweep():
    """1800 noisy predictions of one labeled chain, sigma swept over 2 decades."""
    g = chain_geometry(6, spacing=1.45, n_electrons=6)
    label = scf.scf_solve(g, P)
    ctx = model.Context(g, P)
    tables = []
    for si, sigma in enumerate(np.logspace(-4, -2, 9)):
        rngs = [substream(100000 + 1000 * si + k, "oracle-noise") for k in range(200)]
        pred = surrogate.oracle_noise_predict(label, sigma, sigma, rngs)
        tables.append(validator.full_report(
            pred, label, ctx, system=[f"s{si}:r{k}" for k in range(200)]
        ))
    return g, label, validator.ReportTable.concat(tables)


def test_01_diagonalized_density_always_commutes(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 11))
        side = 1.8 * n ** (1.0 / 3.0)
        try:
            g = model.Geometry(
                ("A",) * n, rng.uniform(0.0, side, (n, 3)), 2 * (n // 2)
            )
            s = model.build_overlap(g, P)
            h = 3.0 * matcore.symmetrize(rng.normal(size=(n, n)))
            eig = matcore.gen_eigensolve(h, s)
            occ = matcore.aufbau_occupations(eig.energies, g.n_electrons)
        except (errors.InvalidGeometry, errors.LinearDependence,
                errors.FermiDegeneracy):
            continue
        d = build_density(eig.coeffs, occ)
        resid = matcore.error_magnitude(matcore.commutator_error(h, d, s))
        scale = max(1.0, float(np.linalg.norm(h) * np.linalg.norm(s)))
        worst = max(worst, resid / scale)
        checked += 1
    ok = worst <= 1e-9
    _verdict(capsys, 1, ok,
             f"commutator vanishes for any diagonalized pair "
             f"(worst {worst:.1e} of scale)")
    assert ok, f"worst scaled commutator residual {worst:.3e}"


def test_02_scf_fixed_points_are_valid(chain_solutions, capsys):
    worst = {"residual": 0.0, "trace": 0.0, "idem": 0.0, "energy": 0.0}
    for g, sol, _ in chain_solutions:
        assert sol.converged
        d, s = sol.density, sol.overlap
        worst["residual"] = max(worst["residual"], sol.strict_diis)
        worst["trace"] = max(
            worst["trace"], abs(float(np.trace(d @ s)) - g.n_electrons)
        )
        worst["idem"] = max(worst["idem"], float(np.abs(d @ s @ d - 2 * d).max()))
        worst["energy"] = max(
            worst["energy"], abs(sol.e_total - brute_force_energy(g, P))
        )
    ok = (worst["residual"] <= 1e-9 and worst["trace"] <= 1e-10
          and worst["idem"] <= 1e-8 and worst["energy"] <= 1e-7)
    _verdict(capsys, 2, ok,
             f"20 SCF fixed points valid (residual {worst['residual']:.1e}, "
             f"oracle energy gap {worst['energy']:.1e} eV)")
    assert ok, worst


def test_03_effective_hamiltonian_is_the_energy_gradient(capsys):
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = random_valid_geometry(rng, n)
        d = matcore.symmetrize(rng.normal(size=(n, n)))
        h = model.effective_hamiltonian(d, g, P)
        fd = fd_energy_gradient(d, g, P)
        rel = float(np.abs(h - fd).max() / max(1.0, np.abs(fd).max()))
        worst = max(worst, rel)
    ok = worst <= 1e-5
    _verdict(capsys, 3, ok,
             f"dE/dD matches finite differences (worst rel {worst:.1e})")
    assert ok, f"worst relative gradient error {worst:.3e}"


def test_04_diis_at_least_halves_iteration_count(chain_solutions, capsys):
    fast = float(np.median([sol.iterations for _, sol, _ in chain_solutions]))
    slow = float(np.median([ref.iterations for _, _, ref in chain_solutions]))
    d_e = max(abs(sol.e_total - ref.e_total) for _, sol, ref in chain_solutions)
    ok = fast <= 0.5 * slow and d_e <= 1e-7
    _verdict(capsys, 4, ok,
             f"median iterations {fast:.0f} with Anderson mixing vs "
             f"{slow:.0f} damping-only, same energies to {d_e:.1e} eV")
    assert ok, (fast, slow, d_e)


def test_05_strict_residual_regresses_linearly_on_self_residual(
        noise_sweep, capsys):
    g, label, reports = noise_sweep
    xs = stats.series(reports, "self_diis")
    ys = stats.series(reports, "strict_diis")
    bins = stats.bin_records(xs, ys, n_bins=20, scheme="equal_count")
    keep = bins.counts >= 5
    fit = stats.linfit(bins.centers[keep], bins.means[keep])

    # Fit on sigma <= 1e-3 only, then predict the sigma = 1e-2 bin means.
    sigma_index = np.array([int(s.split(":")[0][1:]) for s in reports.system])
    low = sigma_index <= 4
    far = sigma_index == 8
    bl = stats.bin_records(xs[low], ys[low], n_bins=20, scheme="equal_count")
    kl = bl.counts >= 5
    low_fit = stats.linfit(bl.centers[kl], bl.means[kl])
    bf = stats.bin_records(xs[far], ys[far], n_bins=5, scheme="equal_count")
    ratios = low_fit.predict(bf.centers) / bf.means

    ok = fit.r_squared >= 0.95 and bool(
        np.all((ratios >= 0.5) & (ratios <= 2.0))
    )
    _verdict(capsys, 5, ok,
             f"binned mean regression R^2={fit.r_squared:.3f}; low-sigma fit "
             f"predicts far bins within 2x (worst ratio {ratios.min():.2f})")
    assert ok, (fit.r_squared, ratios)


def test_06_error_statistics_track_the_self_residual(
        noise_sweep, capsys, tmp_path):
    _, _, reports = noise_sweep
    results = stats.correlation_report(
        reports, targets=("mae", "d_e_total", "d_gap")
    )
    r2 = {t: results[t].mean_fit.r_squared for t in results}
    finite = all(
        np.isfinite(results[t].mean_fit.r_squared)
        and np.isfinite(results[t].std_fit.r_squared)
        for t in results
    )
    stats.write_summary_csv(tmp_path / "summary.csv", results, "self_diis")
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    schema_ok = rows[0] == ["condition", "target", "statistic", "slope",
                            "intercept", "r_squared", "n_points"]
    schema_ok = schema_ok and len(rows) == 1 + 2 * len(results)

    ok = r2["mae"] >= 0.9 and finite and schema_ok
    _verdict(capsys, 6, ok,
             f"mean-MAE R^2={r2['mae']:.3f}; all targets finite; "
             f"summary schema stable")
    assert ok, (r2, finite, schema_ok)


def test_07_residual_gate_rescues_hot_dynamics(capsys):
    # Soft ring: shallow charge penalty and weak repulsion make the
    # surrogate's extrapolation failure fast and reproducible.
    p = model.ModelParams(q_ref=0.5, rep_a=100.0)
    g = ring_geometry(4, spacing=1.27, n_electrons=2)
    ds = surrogate.generate_dataset(
        g, p, 80, mode="md_sample", temperature=300.0, seed=11,
        md_dt=0.5, md_stride=8, md_burnin=200, md_tau=50.0,
    )
    km = surrogate.kernel_fit(ds, k_neighbors=8)
    loo = surrogate.kernel_loo(ds, k_neighbors=8)
    threshold = float(np.percentile(loo["self_diis"], 25))

    def predictor(q):
        return surrogate.kernel_predict(km, q)

    base = dict(n_steps=3000, t_target=600.0, tau=50.0, dt=0.5, seed=13)
    raw = mdsim.run_md(g, p, MdConfig(mode="surrogate_only", **base),
                       predictor=predictor)
    raw_t = raw.temperatures
    blew_up = raw.diverged or bool(raw_t.max() > 3 * 600.0)

    gated = mdsim.run_md(
        g, p, MdConfig(mode="predictor_corrector", threshold=threshold, **base),
        predictor=predictor,
    )
    gated_t = gated.temperatures
    mean_t = float(gated_t[len(gated_t) // 2:].mean())
    held = not gated.diverged and 0.7 * 600.0 <= mean_t <= 1.3 * 600.0
    uncorrected = [fr for fr in gated.frames[1:] if not fr.corrected]
    gate_sound = all(fr.self_diis <= threshold for fr in uncorrected)

    # Inside the failing run, residual and force take off together.
    cross = int(np.argmax(raw_t > 3 * 600.0))
    window = raw.frames[max(1, cross - 50):cross]
    rho = float(spearmanr([fr.self_diis for fr in window],
                          [fr.max_force for fr in window]).statistic)

    ok = (blew_up and held and gate_sound and len(uncorrected) > 0
          and rho > 0.5)
    _verdict(capsys, 7, ok,
             f"raw surrogate peaked at {raw_t.max():.0f} K, gated run held "
             f"{mean_t:.0f} K at target 600 K (rank corr {rho:.2f})")
    assert ok, (blew_up, gated.diverged, mean_t, gate_sound,
                len(uncorrected), rho)


def test_08_nve_energy_drift_is_bounded(capsys):
    g = model.Geometry(("A", "A"), [[0.0, 0.0, 0.0], [1.46, 0.0, 0.0]], 2)
    cfg = MdConfig(n_steps=10000, t_target=300.0, tau=float("inf"), dt=0.25,
                   mode="exact", seed=7)
    result = mdsim.run_md(g, P, cfg)
    masses = np.full(2, 12.011)
    conserved = np.array([
        fr.e_total + 0.5 * EV_PER_AMU_A2_FS2
        * float((masses * (fr.velocities ** 2).sum(axis=1)).sum())
        for fr in result.frames
    ])
    drift = float(np.abs(conserved - conserved[0]).max())
    bound = 0.01 * (1.5 * g.n_atoms * KB_EV_PER_K * 300.0)
    ok = not result.diverged and drift <= bound
    _verdict(capsys, 8, ok,
             f"1e4-step NVE drift {drift:.1e} eV vs bound {bound:.1e} eV")
    assert ok, (drift, bound, result.diverged)


def test_09_consistent_pairs_can_hide_wrong_hamiltonians(capsys):
    g = chain_geometry(6, spacing=1.45, n_electrons=6)
    label = scf.scf_solve(g, P)
    s = label.overlap
    # Deliberately wrong Hamiltonian: add the hopping matrix of a scaled copy
    # of the geometry, then keep (H, D) internally consistent by rebuilding D.
    h_wrong = label.hamiltonian + model.build_h0(
        g.with_positions(g.positions * 1.3), P
    )
    eig = matcore.gen_eigensolve(h_wrong, s)
    occ = matcore.aufbau_occupations(eig.energies, g.n_electrons)
    d_wrong = build_density(eig.coeffs, occ)
    report = validator.full_report(
        validator.Prediction(h_wrong, d_wrong), label, model.Context(g, P)
    )
    self_diis, mae_h = report.self_diis[0], report.mae_h[0]
    scale = max(1.0, float(np.linalg.norm(h_wrong) * np.linalg.norm(s)))
    ok = self_diis <= 1e-9 * scale and mae_h >= 0.1
    _verdict(capsys, 9, ok,
             f"self residual {self_diis:.1e} despite Hamiltonian "
             f"MAE {mae_h:.2f} eV")
    assert ok, (self_diis, scale, mae_h)


def test_10_cli_outputs_are_reproducible(capsys, tmp_path):
    ring = tmp_path / "ring4.xyz"
    model.dump_geometry(ring, ring_geometry(4, spacing=1.4, n_electrons=2))
    same = {}

    def rerun_matches(tag, argv, names):
        # resolved_config.txt embeds the output path, so only the data
        # files are compared.
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{tag}_{attempt}"
            assert cli.main(argv + ["--out", str(out)]) == 0
            blobs.append(b"".join((out / n).read_bytes() for n in names))
        return blobs[0] == blobs[1]

    gen_dirs = []
    for attempt in ("a", "b"):
        out = tmp_path / f"gen_{attempt}"
        assert cli.main(["gen", str(ring), "--n", "10", "--amplitude", "0.05",
                         "--seed", "3", "--out", str(out)]) == 0
        gen_dirs.append(out)
    listings = [
        sorted(q.relative_to(d).as_posix() for q in d.rglob("*") if q.is_file())
        for d in gen_dirs
    ]
    same["gen"] = listings[0] == listings[1] and all(
        (gen_dirs[0] / name).read_bytes() == (gen_dirs[1] / name).read_bytes()
        for name in listings[0]
        if name != "resolved_config.txt"
    )
    ds = gen_dirs[0]

    same["scf"] = rerun_matches(
        "scf", ["scf", str(ring)],
        ["H.scvm", "D.scvm", "S.scvm", "summary.txt", "trace.csv"],
    )

    reports = []
    for tag, jobs in (("v1", "1"), ("v4", "4"), ("v4b", "4")):
        out = tmp_path / tag
        assert cli.main(["validate", "--dataset", str(ds),
                         "--predictor", "oracle-noise",
                         "--sigma", "0.001,0.01", "--repeat", "3",
                         "--seed", "5", "--jobs", jobs,
                         "--out", str(out)]) == 0
        reports.append((out / "reports.csv").read_bytes())
    same["validate"] = reports[0] == reports[1] == reports[2]

    same["stats"] = rerun_matches(
        "stats",
        ["stats", "--reports", str(tmp_path / "v1" / "reports.csv"),
         "--bins", "6", "--targets", "strict_diis"],
        ["summary.csv", "binned_strict_diis.csv", "plotdata_strict_diis.csv"],
    )
    same["grad"] = rerun_matches(
        "grad", ["grad", str(ring), "--train", str(ds), "--k", "4"],
        ["gradient.csv"],
    )
    same["md"] = rerun_matches(
        "md",
        ["md", str(ring), "--mode", "surrogate_only", "--train", str(ds),
         "--steps", "30", "--t-target", "300", "--seed", "11"],
        ["trajectory.xyz", "steps.csv", "summary.txt"],
    )

    ok = all(same.values())
    _verdict(capsys, 10, ok,
             "seeded CLI reruns and --jobs variants are byte-identical")
    assert ok, same
