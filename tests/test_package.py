"""Structure rules of the package sources."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scval"
# A private name of one scval module read from another, e.g. model._fmt_value.
PRIVATE_ACCESS = re.compile(
    r"\b(cli|matcore|mdsim|model|rng|scf|stats|surrogate|systems|validator)\._[A-Za-z]"
)
# A random generator, bit generator or seed sequence being constructed, or
# numpy's global state seeded.
SEEDING = re.compile(
    r"\b(default_rng|Generator|RandomState|SeedSequence|BitGenerator|PCG64"
    r"|PCG64DXSM|MT19937|Philox|SFC64|Random)\s*\(|\brandom\.seed\s*\("
)


def test_no_module_reads_another_modules_private_names():
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if PRIVATE_ACCESS.search(line)
    ]
    assert found == []


def test_only_rng_seeds_random_streams():
    # One seeding scheme: every stream comes from rng.substream(s).
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "rng.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if SEEDING.search(line)
    ]
    assert found == []
    assert SEEDING.search((SRC / "rng.py").read_text())
