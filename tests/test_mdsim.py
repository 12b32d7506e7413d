"""Velocity-Verlet dynamics, force evaluation and the residual gate."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from scval import mdsim, model, scf, surrogate
from scval.mdsim import EV_PER_AMU_A2_FS2, KB_EV_PER_K, MdConfig
from scval.systems import chain_geometry, ring_geometry
from scval.validator import Prediction

P = model.ModelParams()


def dimer(r):
    return model.Geometry(("A", "A"), [[0.0, 0.0, 0.0], [r, 0.0, 0.0]], 2)


def label_prediction(g, p=P):
    sol = scf.scf_solve(g, p)
    return Prediction(sol.hamiltonian, sol.density)


def kernel_predictor(seed_geometry, n=20, seed=21, k=4):
    ds = surrogate.generate_dataset(seed_geometry, P, n, amplitude=0.05,
                                    seed=seed)
    km = surrogate.kernel_fit(ds, k_neighbors=k)
    return ds, (lambda q: surrogate.kernel_predict(km, q))


# --- forces ----------------------------------------------------------------------


def exact_forces(g, p=P):
    sol = scf.scf_solve(g, p)
    return model.Context(g, p).forces(sol.density, h=sol.hamiltonian)


def test_repulsion_forces_match_finite_differences():
    # At zero density every electronic term vanishes, leaving the
    # Born-Mayer pair repulsion.
    rng = np.random.default_rng(0)
    pos = rng.uniform(-1.0, 1.0, (5, 3)) * 2.0
    g = model.Geometry(("A",) * 5, pos, 4)

    def e_rep(positions):
        total = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                r = np.linalg.norm(positions[i] - positions[j])
                total += P.rep_a * math.exp(-r / P.rep_rho)
        return total

    analytic = model.Context(g, P).forces(np.zeros((5, 5)))
    h = 1e-6
    for i in range(5):
        for a in range(3):
            plus = pos.copy()
            plus[i, a] += h
            minus = pos.copy()
            minus[i, a] -= h
            fd = -(e_rep(plus) - e_rep(minus)) / (2 * h)
            assert analytic[i, a] == pytest.approx(fd, abs=1e-6)


def test_zero_density_forces_are_pure_repulsion():
    g = chain_geometry(3, spacing=1.3, n_electrons=2)
    zeros = np.zeros((3, 3))
    np.testing.assert_array_equal(
        mdsim.forces_surrogate(model.Context(g, P), Prediction(zeros, zeros)),
        model.Context(g, P).forces(zeros),
    )


def test_exact_forces_sum_to_zero():
    g = chain_geometry(4, spacing=1.45, n_electrons=4)
    f = exact_forces(g)
    assert np.abs(f.sum(axis=0)).max() <= 1e-6


def test_equilibrium_dimer_has_no_net_force():
    # Locate the minimum by a 1-d energy scan, then check the gradient.
    res = minimize_scalar(
        lambda r: scf.scf_solve(dimer(r), P).e_total,
        bracket=(1.2, 1.5), method="brent", options={"xtol": 1e-10},
    )
    f = exact_forces(dimer(res.x))
    assert np.abs(f).max() <= 1e-6


def test_frozen_density_forces_near_stationarity():
    # A compact basis keeps the Mulliken-charge response small, so the
    # density-frozen force tracks the variational one inside the well.
    p = model.ModelParams(alpha=4.0)
    g = dimer(1.6)
    exact = exact_forces(g, p)
    frozen = mdsim.forces_surrogate(model.Context(g, p), label_prediction(g, p))
    assert np.abs(frozen - exact).max() <= 0.02 * np.abs(exact).max()


def test_surrogate_forces_sum_to_zero():
    g = chain_geometry(4, spacing=1.45, n_electrons=4)
    f = mdsim.forces_surrogate(model.Context(g, P), label_prediction(g))
    assert np.abs(f.sum(axis=0)).max() <= 1e-6


# --- velocities and temperature ---------------------------------------------------


def test_maxwell_velocities_statistics():
    rng = np.random.default_rng(3)
    masses = np.full(1000, 12.011)
    v = mdsim.maxwell_velocities(rng, masses, 500.0)
    assert mdsim.instantaneous_temperature(v, masses) == pytest.approx(
        500.0, rel=0.05
    )
    momentum = (masses[:, None] * v).sum(axis=0)
    assert np.abs(momentum).max() <= 1e-10
    np.testing.assert_array_equal(
        mdsim.maxwell_velocities(rng, masses, 0.0), np.zeros((1000, 3))
    )


def test_temperature_matches_si_oracle():
    rng = np.random.default_rng(4)
    masses = np.array([12.011, 1.008, 15.999])
    v = rng.standard_normal((3, 3)) * 0.01  # A/fs
    ke_joule = 0.5 * float(
        (masses * 1.66053906660e-27 * ((v * 1e-10 / 1e-15) ** 2).sum(axis=1)).sum()
    )
    expected = 2.0 * ke_joule / (3.0 * 3 * 1.380649e-23)
    assert mdsim.instantaneous_temperature(v, masses) == pytest.approx(
        expected, rel=1e-9
    )


def test_temperature_scales_with_speed():
    masses = np.full(4, 12.011)
    v = np.random.default_rng(5).standard_normal((4, 3))
    t1 = mdsim.instantaneous_temperature(v, masses)
    t2 = mdsim.instantaneous_temperature(2.0 * v, masses)
    assert t2 == pytest.approx(4.0 * t1, rel=1e-12)
    assert mdsim.instantaneous_temperature(np.zeros((4, 3)), masses) == 0.0


# --- configuration ----------------------------------------------------------------


def test_config_validation():
    good = MdConfig(n_steps=10, t_target=300.0)
    assert good.dt == 0.5 and good.tau == 100.0
    with pytest.raises(ValueError):
        MdConfig(n_steps=10, t_target=300.0, dt=0.0)
    with pytest.raises(ValueError):
        MdConfig(n_steps=0, t_target=300.0)
    with pytest.raises(ValueError):
        MdConfig(n_steps=10, t_target=-1.0)
    with pytest.raises(ValueError):
        MdConfig(n_steps=10, t_target=300.0, dt=0.5, tau=0.2)
    with pytest.raises(ValueError):
        MdConfig(n_steps=10, t_target=300.0, mode="leapfrog")
    with pytest.raises(ValueError):
        MdConfig(n_steps=10, t_target=300.0, mode="predictor_corrector")
    with pytest.raises(ValueError):
        MdConfig(n_steps=10, t_target=300.0, norm="L7")
    # NVE and the degenerate gate settings are all legal.
    MdConfig(n_steps=10, t_target=300.0, tau=float("inf"))
    MdConfig(n_steps=10, t_target=300.0, mode="predictor_corrector",
             threshold=0.0)
    MdConfig(n_steps=10, t_target=300.0, mode="predictor_corrector",
             threshold=float("inf"))


def test_run_md_argument_validation():
    g = dimer(1.5)
    cfg = MdConfig(n_steps=5, t_target=300.0, mode="surrogate_only")
    with pytest.raises(ValueError):
        mdsim.run_md(g, P, cfg)  # predictor missing
    exact = MdConfig(n_steps=5, t_target=300.0)
    with pytest.raises(ValueError):
        mdsim.run_md(g, P, exact, masses=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        mdsim.run_md(g, P, exact, masses=np.ones(3))


# --- trajectories ------------------------------------------------------------------


def test_exact_run_records_every_frame():
    g = dimer(1.46)
    cfg = MdConfig(n_steps=10, t_target=300.0, seed=2)
    result = mdsim.run_md(g, P, cfg)
    assert not result.diverged and result.aborted is None
    assert [f.step for f in result.frames] == list(range(11))
    np.testing.assert_array_equal(result.frames[0].positions, g.positions)
    for f in result.frames:
        assert f.corrected
        assert math.isnan(f.self_diis)
        assert f.temperature >= 0.0
        assert f.max_force >= 0.0


def test_gate_uses_surrogate_only_below_threshold():
    g = ring_geometry(4, spacing=1.4, n_electrons=2)
    ds, predictor = kernel_predictor(g)
    loo = surrogate.kernel_loo(ds, k_neighbors=4)
    threshold = float(np.median(loo["self_diis"]))
    cfg = MdConfig(n_steps=150, t_target=300.0, tau=50.0,
                   mode="predictor_corrector", threshold=threshold, seed=3)
    result = mdsim.run_md(g, P, cfg, predictor=predictor)
    assert not result.diverged and result.aborted is None
    corrected = np.array([f.corrected for f in result.frames])
    sd = np.array([f.self_diis for f in result.frames])
    assert np.isfinite(sd).all()
    assert np.all(sd[~corrected] <= threshold)
    assert np.all(sd[corrected] > threshold)
    # This trajectory genuinely exercises both branches.
    assert corrected.any() and (~corrected).any()


def test_infinite_threshold_matches_surrogate_only():
    g = ring_geometry(4, spacing=1.4, n_electrons=2)
    _, predictor = kernel_predictor(g)
    gated = mdsim.run_md(
        g, P,
        MdConfig(n_steps=100, t_target=300.0, tau=50.0,
                 mode="predictor_corrector", threshold=float("inf"), seed=5),
        predictor=predictor,
    )
    plain = mdsim.run_md(
        g, P,
        MdConfig(n_steps=100, t_target=300.0, tau=50.0,
                 mode="surrogate_only", seed=5),
        predictor=predictor,
    )
    np.testing.assert_array_equal(gated.positions, plain.positions)
    assert not any(f.corrected for f in gated.frames)


def test_zero_threshold_matches_exact():
    g = ring_geometry(4, spacing=1.4, n_electrons=2)
    _, predictor = kernel_predictor(g)
    gated = mdsim.run_md(
        g, P,
        MdConfig(n_steps=25, t_target=300.0, tau=50.0,
                 mode="predictor_corrector", threshold=0.0, seed=5),
        predictor=predictor,
    )
    exact = mdsim.run_md(
        g, P, MdConfig(n_steps=25, t_target=300.0, tau=50.0, seed=5)
    )
    np.testing.assert_array_equal(gated.positions, exact.positions)
    assert all(f.corrected for f in gated.frames)


def test_runaway_surrogate_flags_divergence():
    wild = Prediction(np.zeros((2, 2)), np.array([[1.0, -1e3], [-1e3, 1.0]]))
    cfg = MdConfig(n_steps=50, t_target=300.0, mode="surrogate_only", seed=1)
    result = mdsim.run_md(dimer(1.5), P, cfg, predictor=lambda _: wild)
    assert result.diverged
    assert len(result.frames) < 51


def test_collision_flags_divergence():
    # Pure bonding attraction with the wall switched off and a draining
    # thermostat walks the pair below the minimum separation.
    p = model.ModelParams(hubbard_u=0.0, rep_a=1e-6)
    sticky = Prediction(np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0]]))
    cfg = MdConfig(n_steps=2000, t_target=0.0, dt=0.1, tau=1.0,
                   mode="surrogate_only", seed=1)
    result = mdsim.run_md(dimer(1.5), p, cfg, predictor=lambda _: sticky)
    assert result.diverged
    assert 0 < len(result.frames) < 2001


def test_failed_initial_solve_aborts():
    g = chain_geometry(4, spacing=1.4, n_electrons=4)
    cfg = MdConfig(n_steps=5, t_target=300.0, seed=1)
    result = mdsim.run_md(g, P, cfg, scf_cfg=scf.ScfConfig(max_iter=1))
    assert result.aborted is not None
    assert result.aborted.startswith("initial solve failed")
    assert result.frames == []


def test_nve_total_energy_is_conserved():
    g = dimer(1.46)
    cfg = MdConfig(n_steps=2000, t_target=300.0, dt=0.25, tau=float("inf"),
                   mode="exact", seed=7)
    result = mdsim.run_md(g, P, cfg)
    masses = np.full(2, 12.011)
    conserved = np.array([
        f.e_total
        + 0.5 * EV_PER_AMU_A2_FS2
        * float((masses * (f.velocities**2).sum(axis=1)).sum())
        for f in result.frames
    ])
    drift = np.abs(conserved - conserved[0]).max()
    ke_scale = 1.5 * g.n_atoms * KB_EV_PER_K * 300.0
    assert drift <= 0.01 * ke_scale


def test_thermostat_holds_target_temperature():
    # ~75 s: the long-run ensemble check behind every other MD claim.
    g = ring_geometry(6, spacing=1.675, n_electrons=6)
    cfg = MdConfig(n_steps=5000, t_target=300.0, dt=0.5, tau=100.0,
                   mode="exact", seed=1)
    result = mdsim.run_md(g, P, cfg)
    assert len(result.frames) == 5001
    temps = result.temperatures
    mean_t = temps[len(temps) // 2:].mean()
    assert 240.0 <= mean_t <= 360.0


# --- output files ------------------------------------------------------------------


def test_trajectory_xyz_roundtrip(tmp_path):
    g = dimer(1.46)
    result = mdsim.run_md(g, P, MdConfig(n_steps=5, t_target=300.0, seed=2))
    path = tmp_path / "trajectory.xyz"
    mdsim.write_trajectory_xyz(path, result, g, dt=0.5)
    frames = model.parse_xyz_frames(path.read_text())
    assert len(frames) == 6
    for (parsed, extra), frame in zip(frames, result.frames):
        np.testing.assert_array_equal(parsed.positions, frame.positions)
        assert int(extra["step"]) == frame.step
        assert float(extra["time_fs"]) == frame.step * 0.5
        assert float(extra["e_total"]) == frame.e_total


def test_steps_csv_schema(tmp_path):
    g = dimer(1.46)
    result = mdsim.run_md(g, P, MdConfig(n_steps=4, t_target=300.0, seed=2))
    path = tmp_path / "steps.csv"
    mdsim.write_steps_csv(path, result)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,temperature,e_total,max_force,self_diis,corrected"
    assert len(lines) == 6
    for line, frame in zip(lines[1:], result.frames):
        fields = line.split(",")
        assert int(fields[0]) == frame.step
        assert float(fields[2]) == frame.e_total
        assert math.isnan(float(fields[4]))  # exact mode records no residual
        assert fields[5] == "1"
