"""``show`` is where exact coefficients turn back into text, so its output
is pinned byte for byte: ``tests/golden/show/<instance>-<what>.txt`` for
every built-in and every ``--what``, plus ``sym:2`` at mu = 2/3, whose
coefficients have denominators of 4.

Regenerate the files (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_show_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from starcayley.cli import main
from starcayley.report import BUILTIN_SELECTORS

GOLDEN = Path(__file__).resolve().parent / "golden" / "show"
WHATS = ("bracket-table", "moment-maps", "rho", "dpi")
INSTANCES = [(sel, "1") for sel in BUILTIN_SELECTORS] + [("sym:2", "2/3")]
CASES = [(sel, mu, what) for sel, mu in INSTANCES for what in WHATS]


def _path(selector: str, mu: str, what: str) -> Path:
    tag = selector.replace(":", "_") + ("" if mu == "1" else "-mu" + mu.replace("/", "_"))
    return GOLDEN / f"{tag}-{what}.txt"


def _show(selector: str, mu: str, what: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["show", "--algebra", selector, "--mu", mu, "--what", what]) == 0
    return buf.getvalue()


@pytest.mark.parametrize("selector, mu, what", CASES)
def test_show_matches_golden(selector, mu, what):
    assert _show(selector, mu, what) == _path(selector, mu, what).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        _path(*case).write_text(_show(*case))
