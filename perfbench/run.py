"""scval benchmark.

    python3 perfbench/run.py --workload {scf_corpus,validate,md_gated} \\
        --seed N --seconds S --trace {0,1}

Runs one workload in this process, from the scval sources under ``src/``
of the checkout that holds this file, and prints one JSON object as the
last line of standard output.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it wraps the program's public
functions and reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, percentile_ms

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scf_corpus", "validate", "md_gated"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_scval():
    """Import scval from this checkout's sources, never from elsewhere."""
    if not (SRC / "scval" / "__init__.py").is_file():
        raise SystemExit(f"error: no scval sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scval

    if Path(scval.__file__).resolve().parent != (SRC / "scval").resolve():
        raise SystemExit(f"error: imported scval from {scval.__file__}")
    return scval


def run_workload(w, seconds, trace):
    """Set up, warm up, then run whole rounds; returns the measurements."""
    setup_s = []
    for _ in range(w.setup_repeats):
        t0 = time.perf_counter()
        w.setup()
        setup_s.append(time.perf_counter() - t0)
    w.write_inputs()

    ops = w.round()
    warm_run, warm_inspect = ops[0]
    warm_run()
    warm_inspect()

    op_s, attempted, failed, items, rounds, busy = [], 0, 0, 0, 0, 0.0
    while True:
        for run, inspect in ops:
            t0 = time.perf_counter()
            n, ok = run()
            dt = time.perf_counter() - t0
            inspect()
            op_s.append(dt)
            busy += dt
            attempted += 1
            failed += not ok
            items += n
        rounds += 1
        if trace:
            if rounds >= w.trace_rounds:
                break
        elif busy + busy / rounds > seconds:
            # Another round of average length would end past the budget.
            break
    print(f"{w.name}: set-up {min(setup_s):.3f}..{max(setup_s):.3f} s over "
          f"{len(setup_s)}, {rounds} round(s), {attempted} ops in {busy:.2f} s",
          file=sys.stderr)
    return {
        "setup_s": statistics.median(setup_s),
        "busy_s": busy,
        "op_s": op_s,
        "attempted": attempted,
        "failed": failed,
        "items": items,
    }


def end_to_end(m):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": m["setup_s"], "unit": "s"},
        "items_per_s": {"value": m["items"] / m["busy_s"], "unit": "1/s"},
        "op_ms_p50": {"value": 1e3 * statistics.median(m["op_s"]), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def per_layer(tracer, w, m):
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in ("matcore.loewdin_inverse_sqrt", "matcore.gen_eigensolve",
                 "matcore.commutator_error", "model.effective_hamiltonian",
                 "model.electronic_energy", "scf.scf_solve",
                 "validator.full_report", "validator.self_diis",
                 "surrogate.oracle_noise_predict", "surrogate.kernel_predict",
                 "mdsim.forces_surrogate"):
        st = tracer.get(name)
        put(f"{name}.calls", st.calls, "count")
        put(f"{name}.time_s", st.time_s, "s")
    for name in ("model.build_h0", "model.build_overlap"):
        put(f"{name}.calls", tracer.get(name).calls, "count")
    for name in ("validator.write_reports_csv", "surrogate.kernel_fit",
                 "surrogate.kernel_loo", "surrogate.generate_dataset",
                 "surrogate.save_dataset", "surrogate.load_dataset",
                 "stats.correlation_report"):
        put(f"{name}.time_s", tracer.get(name).time_s, "s")
    solve = tracer.get("scf.scf_solve")
    put("scf.scf_solve.iterations", solve.iterations, "count")
    put("scf.scf_solve.failed", solve.raised, "count")
    put("scf.scf_solve.ms_p50", percentile_ms(solve.samples, 50), "ms")
    put("scf.scf_solve.ms_p90", percentile_ms(solve.samples, 90), "ms")
    for name in ("mdsim.run_md", "cli.main"):
        st = tracer.get(name)
        put(f"{name}.time_s", st.time_s, "s")
        put(f"{name}.self_s", st.self_s, "s")
    counts = {"mdsim.steps_corrected": 0, "mdsim.steps_surrogate": 0}
    counts.update(w.trace_counts())
    for name, value in counts.items():
        put(name, value, "count")
    put("bench.traced_items_per_s", m["items"] / m["busy_s"], "1/s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    load_scval()
    import workloads

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install("scval")
        w = workloads.WORKLOADS[args.workload](args.seed, work)
        m = run_workload(w, args.seconds, args.trace)
        problems = w.finish()
        if tracer is not None:
            tracer.uninstall()
            metrics = per_layer(tracer, w, m)
        else:
            metrics = end_to_end(m)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    counts = w.trace_counts()
    if counts:
        print(f"{w.name}: {counts}", file=sys.stderr)
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
