"""Show that every output check rejects a deliberately corrupted output.

    python3 perfbench/selftest.py

Each check first passes on a real scval output, then is fed the same
output with one deliberate fault and must report it.  Exits 1 if any
check accepts a corrupted output or rejects a correct one.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import csv
import dataclasses
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np

import checks
import workloads
from scval import cli, model, scf
from scval.systems import random_geometry

failures = []


def expect(label, problems, want):
    """want is None for a passing output, else a fragment that one of the
    reported problems must contain."""
    if want is None:
        ok = not problems
    else:
        ok = any(want in msg for msg in problems)
    shown = [m for m in problems if want and want in m][:1] or problems[:1]
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {shown or 'passes'}")
    if not ok:
        failures.append(label)


def scf_checks():
    rng = np.random.default_rng(0)
    g = random_geometry(rng, int(rng.integers(4, 11)))
    sol = scf.scf_solve(g, model.ModelParams())
    tol = scf.ScfConfig().tol
    pos, n_e = g.positions, g.n_electrons

    def run(label, want, **changes):
        bad = dataclasses.replace(sol, **changes)
        expect(f"scf: {label}", checks.check_scf_solution(pos, n_e, bad, tol), want)

    def with_density(d):
        # A corrupted density paired with its own H(D), as a solver returns it.
        h = model.effective_hamiltonian(d, g, model.ModelParams())
        return {"density": d, "hamiltonian": h}

    run("converged solve", None)
    h = sol.hamiltonian.copy()
    h[0, 1] = h[1, 0] = h[0, 1] + 1e-6
    run("H not H(D)", "H(D)", hamiltonian=h)
    unconverged = scf.scf_solve(g, model.ModelParams(), scf.ScfConfig(tol=1e-4))
    run("residual above tolerance", "residual", **with_density(unconverged.density))
    run("trace off by 0.1%", "tr(DS)", **with_density(1.001 * sol.density))
    run("D not idempotent", "DSD", **with_density(sol.density + 1e-6 * sol.overlap))
    # An excited filling: idempotent with the right trace, wrong levels.
    n_occ = n_e // 2
    c = sol.coeffs[:, list(range(n_occ - 1)) + [n_occ]]
    run("density not aufbau", "aufbau", **with_density(2.0 * c @ c.T))
    run("energy off by 1e-8 eV", "e_total", e_total=sol.e_total + 1e-8)


def validate_checks(work):
    ring = work / "ring6.xyz"
    ring.write_text(workloads.RING_XYZ)
    assert cli.main(["gen", str(ring), "--n", "64", "--seed", "5",
                     "--out", str(work / "ds")]) == 0
    sigmas = workloads.Validate.sigmas
    assert cli.main([
        "validate", "--dataset", str(work / "ds"), "--predictor", "oracle-noise",
        "--sigma", ",".join(repr(s) for s in sigmas), "--repeat", "8",
        "--seed", "5", "--out", str(work / "val"),
    ]) == 0
    with open(work / "val" / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))

    def run(label, want, edit=None):
        bad = [dict(r) for r in rows]
        for r in bad:
            if edit:
                edit(r)
        expect(f"validate: {label}",
               checks.check_validate_reports(bad, sigmas, 6), want)

    def scale(key, factor):
        def edit(r):
            r[key] = repr(float(r[key]) * factor)
        return edit

    def square_in_sigma(r):
        j = int(r["system"].split(":")[1][1:])
        r["self_diis"] = repr(float(r["self_diis"]) * sigmas[j] * 100)

    run("oracle-noise reports", None)
    run("mae_h 10% high", "mae_h", scale("mae_h", 1.1))
    run("mae_d 10% low", "mae_d", scale("mae_d", 0.9))
    run("self residual quadratic in sigma", "self residual", square_in_sigma)


def md_checks(work):
    w = workloads.MdGated(3, work)
    w.setup()
    w.write_inputs()
    velocity_seed = w.order[0]
    run_op, _ = w._op(velocity_seed)
    assert run_op()[1]
    out = work / "md" / str(velocity_seed)
    summary = model.read_config(out / "summary.txt")
    threshold = float(model.read_config(out / "resolved_config.txt")["md.threshold"])
    with open(out / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    n = w.n_steps

    def run(label, want, summary=summary, rows=rows):
        expect(f"md: {label}",
               checks.check_md_trajectory(summary, rows, threshold, n), want)

    run("gated trajectory", None)
    run("aborted run", "last step", summary=dict(summary, aborted="step 7: failed"))
    run("diverged run", "last step", summary=dict(summary, diverged=1))
    run("missing step", "steps recorded", rows=rows[:-1])
    for i in (0, len(rows) // 2, len(rows) - 1):
        flipped = [dict(r) for r in rows]
        flipped[i]["corrected"] = str(1 - int(flipped[i]["corrected"]))
        run(f"gate flag of step {i} flipped", "corrected=", rows=flipped)

    w._inspect(velocity_seed, out)
    if not w.corrected_frames:
        failures.append("md: no corrected frame in the trajectory")
        return
    pos, n_e, e_total = w.corrected_frames[0]
    expect("md: corrected frame energy",
           checks.check_fixed_point_energy(pos, n_e, e_total, w.energy_tol), None)
    expect("md: energy off by 1e-6 eV",
           checks.check_fixed_point_energy(pos, n_e, e_total + 1e-6, w.energy_tol),
           "fixed-point energy")


def main() -> int:
    work = HERE.parent / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        scf_checks()
        validate_checks(work)
        md_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if failures:
        print(f"{len(failures)} check(s) misbehaved: {failures}")
        return 1
    print("every check passes real output and rejects each corruption")
    return 0


if __name__ == "__main__":
    sys.exit(main())
