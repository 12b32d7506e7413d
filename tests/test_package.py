"""Structure rules of the package sources."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scval"
# A private name of one scval module read from another, e.g. model._fmt_value.
PRIVATE_ACCESS = re.compile(
    r"\b(cli|matcore|mdsim|model|rng|scf|stats|surrogate|systems|validator)\._[A-Za-z]"
)


def test_no_module_reads_another_modules_private_names():
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if PRIVATE_ACCESS.search(line)
    ]
    assert found == []
