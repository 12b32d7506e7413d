"""Regenerate corpus_seeds.json, the input corpus of the scf_corpus workload.

    python3 perfbench/corpus.py

The corpus is the first 60 seeds whose ``random_geometry`` system (4 to
10 atoms, drawn as in tests/test_scf.py::test_no_stall_after_reaching_the_basin)
plain 5% damping converges within 2000 iterations.  The script also
prints which members the default solver fails on today.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

CORPUS_SIZE = 60


def corpus_geometry(seed):
    import numpy as np
    from scval.systems import random_geometry

    rng = np.random.default_rng(seed)
    return random_geometry(rng, int(rng.integers(4, 11)))


def main() -> int:
    from scval import model, scf
    from scval.errors import NoConvergence

    screen = scf.ScfConfig(max_iter=2000, damping=0.05, diis_start=10**9)
    p = model.ModelParams()
    seeds = []
    seed = 0
    while len(seeds) < CORPUS_SIZE:
        try:
            scf.scf_solve(corpus_geometry(seed), p, screen)
            seeds.append(seed)
        except NoConvergence:
            pass
        seed += 1
    failing = []
    for seed in seeds:
        try:
            scf.scf_solve(corpus_geometry(seed), p)
        except NoConvergence:
            failing.append(seed)
    (HERE / "corpus_seeds.json").write_text(json.dumps({"seeds": seeds}) + "\n")
    print(f"{len(seeds)} seeds written; default solve fails on {failing}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
