"""Per-layer tracing by wrapping scval's public functions.

Each wrapper records calls, total wall time, self time (wall time minus
the time of wrapped calls made inside it) and raised exceptions.  The
wrappers are installed on every module attribute through which the
program looks a function up, so intra-module calls (``model.energy``
calling ``electronic_energy``) and by-name imports (``mdsim`` imports
``self_diis`` from ``validator``) are seen too.  Records stay in memory
and are read out once, when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

# (module, function, extra modules that import the name directly)
TRACED = (
    ("matcore", "loewdin_inverse_sqrt", ()),
    ("matcore", "gen_eigensolve", ()),
    ("matcore", "commutator_error", ()),
    ("model", "effective_hamiltonian", ()),
    ("model", "electronic_energy", ()),
    ("model", "build_h0", ()),
    ("model", "build_overlap", ()),
    ("scf", "scf_solve", ()),
    ("validator", "full_report", ()),
    ("validator", "self_diis", ("mdsim",)),
    ("validator", "write_reports_csv", ()),
    ("surrogate", "oracle_noise_predict", ()),
    ("surrogate", "kernel_predict", ()),
    ("surrogate", "kernel_fit", ()),
    ("surrogate", "kernel_loo", ()),
    ("surrogate", "generate_dataset", ()),
    ("surrogate", "save_dataset", ()),
    ("surrogate", "load_dataset", ()),
    ("stats", "correlation_report", ()),
    ("mdsim", "run_md", ()),
    ("mdsim", "forces_surrogate", ()),
    ("cli", "main", ()),
)

# Calls whose individual durations are kept for percentiles and whose
# returned solutions report their iteration counts.
_SOLVERS = {"scf.scf_solve"}


@dataclass
class CallStats:
    calls: int = 0
    time_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0
    iterations: int = 0
    samples: list = field(default_factory=list)


class Tracer:
    """Installs the wrappers and owns their records."""

    def __init__(self):
        self.stats = {}
        self._stack = []  # child time accumulated by each open call
        self._saved = []

    def install(self, package) -> None:
        import importlib

        for mod_name, fn_name, importers in TRACED:
            mod = importlib.import_module(f"{package}.{mod_name}")
            original = getattr(mod, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for name in (mod_name,) + importers:
                site = importlib.import_module(f"{package}.{name}")
                self._saved.append((site, fn_name, getattr(site, fn_name)))
                setattr(site, fn_name, wrapper)

    def uninstall(self) -> None:
        for site, fn_name, original in reversed(self._saved):
            setattr(site, fn_name, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        st = self.stats.setdefault(name, CallStats())
        solver = name in _SOLVERS
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                st.raised += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st.calls += 1
                st.time_s += dt
                st.self_s += dt - child[0]
                if stack:
                    stack[-1][0] += dt
                if solver:
                    st.samples.append(dt)
            if solver:
                st.iterations += out.iterations
            return out

        return wrapper

    def get(self, name) -> CallStats:
        return self.stats.get(name, CallStats())


def percentile_ms(samples, q: int) -> float:
    """q-th percentile in ms; needs at least ten samples beyond it."""
    if len(samples) * (100 - q) < 1000:
        raise ValueError(
            f"{len(samples)} samples leave fewer than ten beyond p{q}"
        )
    return 1e3 * statistics.quantiles(samples, n=100)[q - 1]
