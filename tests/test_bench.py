"""The paired-benchmark summary: each side's quartiles, the claim verdict,
the no-regression verdict, and every run that errored or failed."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
)
bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench)


def _result(verify_s, failed=0):
    metrics = {"verify_s": verify_s, "setup_s": 0.1, "peak_rss_mb": 17.0}
    return {
        "correct": True,
        "attempted": 7,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": "s"} for m, v in metrics.items()},
    }


def _runs():
    runs = []
    for seed in range(1, 11):
        parent = 1.0 + seed / 100
        change = 0.5 + seed / 100
        if seed == 4:
            change_result = {"error": "exit 1: Traceback"}
        else:
            change_result = _result(change, failed=1 if seed == 7 else 0)
        for side, result in (("parent", _result(parent)), ("change", change_result)):
            runs.append({"workload": "w", "seed": seed, "side": side, "result": result})
    return runs


def test_summary_uses_complete_pairs_and_reports_quartiles():
    rows = {r["metric"]: r for r in bench.summarize(_runs(), ["w"])}
    row = rows["verify_s"]
    # seed 4 lost its change side, so nine pairs remain
    assert row["pairs"] == 9 and row["wins"] == 9
    seeds = [s for s in range(1, 11) if s != 4]
    assert row["parent"][1] == 1.0 + seeds[4] / 100
    assert row["change"][1] == 0.5 + seeds[4] / 100
    q1, _, q3 = row["parent"]
    assert q1 < row["parent"][1] < q3
    assert row["claim"]
    # equal setup_s on both sides wins no pair, so no claim
    assert rows["setup_s"]["wins"] == 0 and not rows["setup_s"]["claim"]


def test_claim_needs_a_gap_larger_than_the_parent_iqr():
    runs = [
        {"workload": "w", "seed": seed, "side": side, "result": _result(base + seed / 10)}
        for seed in range(1, 11)
        for side, base in (("parent", 1.0), ("change", 0.99))
    ]
    row = next(r for r in bench.summarize(runs, ["w"]) if r["metric"] == "verify_s")
    assert row["wins"] == 10 and not row["claim"]


def _paired(parent, change):
    return [
        {"workload": "w", "seed": seed, "side": side, "result": _result(value)}
        for seed in range(1, 11)
        for side, value in (("parent", parent), ("change", change))
    ]


def test_median_beyond_the_bound_reads_worse():
    # verify_s has bound 0.2 in BENCHMARK.json: 1.3 s against 1.0 s is worse
    assert bench.BOUNDS["verify_s"] == 0.2
    row = next(r for r in bench.summarize(_paired(1.0, 1.3), ["w"]) if r["metric"] == "verify_s")
    assert row["worse"] and row["wins"] == 0


def test_median_inside_the_bound_reads_within():
    # 1.1 s against 1.0 s is slower in every pair but inside the bound
    rows = {r["metric"]: r for r in bench.summarize(_paired(1.0, 1.1), ["w"])}
    assert not rows["verify_s"]["worse"] and rows["verify_s"]["wins"] == 0
    assert not any(r["worse"] for r in rows.values())


def test_problems_name_errored_and_failed_runs():
    problems = bench.problems(_runs())
    assert len(problems) == 2
    assert any("seed 4 change" in p and "Traceback" in p for p in problems)
    assert any("seed 7 change" in p and "1 failed" in p for p in problems)
    incorrect = _runs()
    incorrect[0]["result"]["correct"] = False
    assert any("correct is False" in p for p in bench.problems(incorrect))
    assert any("no change run" in p for p in bench.problems(_runs()[:-1]))
