"""The benchmark's hooks into scval stay valid.

``perfbench/tracing.py`` wraps scval functions by module and name, and
``perfbench/selftest.py`` drives scval end to end; renaming or bypassing
what they reach for breaks only the traced benchmark runs, so both are
exercised here.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from scval import model, scf
from scval.systems import chain_geometry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look themselves up
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_wraps_and_restores_every_traced_name():
    tracing = load_tracing()
    sites = [(importlib.import_module(f"scval.{name}"), fn)
             for mod, fn, importers in tracing.TRACED
             for name in (mod, *importers)]
    before = [getattr(site, fn) for site, fn in sites]
    tracer = tracing.Tracer()
    try:
        tracer.install("scval")
        wrapped = [getattr(site, fn) for site, fn in sites]
        # A solve is seen through the module attribute, with its iterations.
        sol = scf.scf_solve(chain_geometry(4, spacing=1.4, n_electrons=4),
                            model.ModelParams())
    finally:
        tracer.uninstall()
    assert all(w is not b and w.__wrapped__ is b for w, b in zip(wrapped, before))
    assert all(getattr(site, fn) is b for (site, fn), b in zip(sites, before))
    solves = tracer.get("scf.scf_solve")
    assert (solves.calls, solves.iterations) == (1, sol.iterations)


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_validate_run_counts_every_label_solve():
    # The traced run needs at least 100 scf.scf_solve samples for its
    # percentiles; they all come from the set-up's generate_dataset, so a
    # solve that bypasses the module attribute makes the run exit 1.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "validate",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert out["metrics"]["scf.scf_solve.calls"]["value"] >= 100
