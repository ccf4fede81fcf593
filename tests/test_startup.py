"""What importing the package loads, in a fresh interpreter: the modules
that ``import starcayley.report`` and ``import starcayley.cli`` add to
``sys.modules``.  Before and after are compared, so that modules a site
hook loads at start-up do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def added_by(module: str) -> set:
    code = PROBE.format(module=module)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "module, absent",
    [
        # dataclasses imports inspect, dis, ast and tokenize, and each
        # decoration compiles its methods from source text
        ("starcayley.report", {"dataclasses", "inspect"}),
        # the profiler is imported only by verify --profile
        ("starcayley.cli", {"dataclasses", "inspect", "cProfile", "pstats"}),
    ],
)
def test_import_leaves_out(module, absent):
    added = added_by(module)
    assert module in added
    assert not added & absent
