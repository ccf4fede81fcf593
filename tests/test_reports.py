"""The committed reports are the oracle for the verifier's behaviour: a run
on a built-in must reproduce ``reports/<instance>.json`` field by field,
apart from the wall-clock ``timings``."""

import json
from pathlib import Path

import pytest

from starcayley.report import RunConfig, run

REPORTS = Path(__file__).resolve().parent.parent / "reports"


@pytest.mark.parametrize(
    "selector", ["rank1", "spin:2", "spin:3", "spin:4", "spin:5", "sym:2", "sym:3"]
)
def test_report_matches_committed_oracle(selector):
    got = json.loads(json.dumps(run(RunConfig(algebra=selector)).to_json()))
    want = json.loads((REPORTS / f"{selector.replace(':', '_')}.json").read_text())
    got.pop("timings")
    want.pop("timings")
    assert got == want
