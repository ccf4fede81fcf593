#!/usr/bin/env python3
"""Paired end-to-end benchmark of two starcayley checkouts.

    python3 scripts/bench.py --parent DIR --change DIR \
        --workloads full-sym3 operators-spin5 per-suite-small \
        --seeds 1-10 --seconds 20 --label NAME

For every seed and workload it runs ``python3 perfbench/run.py --workload W
--seed S --seconds N --trace 0`` once in each checkout, back to back, the
parent first on odd seeds and the change first on even ones, so that a
drift in host speed falls on both sides alike.  Each checkout runs its own
``perfbench/``.  The final JSON line of every run goes into
``BENCH_<label>.json`` at the root of this repository, with both commit
shas and the Python version.  The script then prints, per workload and
metric, each side's median and quartiles over the complete pairs, their
ratio, the number of pairs in which the change was better, whether a
claimed gain would hold (better in at least 9 of 10 pairs, with the median
better by more than the parent's interquartile range) and the
no-regression verdict: ``worse`` when the change's median exceeds the
parent's by more than the metric's ``bound`` in ``BENCHMARK.json`` times
the parent's median, ``within`` otherwise.  It exits 1 when a
run errored, read ``correct: false`` or had failed calls, or when a pair
misses a side.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
METRICS = ("verify_s", "setup_s", "peak_rss_mb")  # all lower-is-better
BOUNDS = {
    m["name"]: m["bound"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def parse_seeds(text: str) -> list:
    """'1-10' or '1,4,7' (or a mix, '1-3,7') as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


def git_sha(checkout: pathlib.Path):
    out = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() if out.returncode == 0 else None


def run_one(checkout: pathlib.Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def problems(runs: list) -> list:
    """One line per run that errored, read ``correct: false`` or had failed
    calls, and per seed whose pair misses a side."""
    out, sides = [], {}
    for r in runs:
        res, where = r["result"], f"{r['workload']} seed {r['seed']} {r['side']}"
        sides.setdefault((r["workload"], r["seed"]), set()).add(r["side"])
        if "metrics" not in res:
            out.append(f"{where}: {res.get('error', 'no metrics')}")
        elif res.get("correct") is not True:
            out.append(f"{where}: correct is {res.get('correct')}")
        if res.get("failed", 0):
            out.append(f"{where}: {res['failed']} failed calls")
    for (w, seed), have in sorted(sides.items()):
        for side in sorted({"parent", "change"} - have):
            out.append(f"{w} seed {seed}: no {side} run")
    return out


def summarize(runs: list, workloads: list) -> list:
    """One row per workload and metric over the pairs in which both sides
    gave metrics: each side's quartiles, the change's wins, the verdict
    of the claim rule (the change better in at least 9 of 10 pairs, and
    its median better by more than the parent's interquartile range) and
    whether the change's median is worse than the parent's by more than
    the metric's bound, a fraction of the parent's median."""
    rows = []
    for w in workloads:
        pairs = {}
        for r in runs:
            if r["workload"] == w and "metrics" in r["result"]:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        both = [p for p in pairs.values() if len(p) == 2]
        if not both:
            continue
        for m in METRICS:
            par = [p["parent"][m]["value"] for p in both]
            chg = [p["change"][m]["value"] for p in both]
            wins = sum(c < p for p, c in zip(par, chg))
            qp, qc = quartiles(par), quartiles(chg)
            claim = 10 * wins >= 9 * len(both) and qp[1] - qc[1] > qp[2] - qp[0]
            worse = qc[1] - qp[1] > BOUNDS[m] * qp[1]
            rows.append(dict(workload=w, metric=m, parent=qp, change=qc, wins=wins,
                             pairs=len(both), claim=claim, worse=worse))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path)
    ap.add_argument("--change", required=True, type=pathlib.Path)
    ap.add_argument("--workloads", required=True, nargs="+")
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            print(f"error: {side} checkout {path} has no perfbench/run.py", file=sys.stderr)
            return 2

    runs = []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for w in args.workloads:
            for side in order:
                result = run_one(sides[side], w, seed, args.seconds)
                runs.append({"workload": w, "seed": seed, "side": side, "result": result})
                verify = result.get("metrics", {}).get("verify_s", {}).get("value")
                print(f"seed {seed:3d}  {w:18s} {side:7s} verify_s {verify}", flush=True)

    out = {
        "label": args.label,
        "parent_sha": git_sha(sides["parent"]),
        "change_sha": git_sha(sides["change"]),
        "python": platform.python_version(),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": args.workloads,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    print(f"{'workload':18s} {'metric':12s} {'parent median [q1, q3]':>28s} "
          f"{'change median [q1, q3]':>28s} {'ratio':>6s} {'wins':>6s}  claim  bound")
    for r in summarize(runs, args.workloads):
        (p1, p, p3), (c1, c, c3) = r["parent"], r["change"]
        ratio = c / p if p else float("nan")
        print(f"{r['workload']:18s} {r['metric']:12s} {p:9.4f} [{p1:.4f}, {p3:.4f}] "
              f"{c:9.4f} [{c1:.4f}, {c3:.4f}] {ratio:6.3f} {r['wins']:>3d}/{r['pairs']:<2d}  "
              f"{'holds' if r['claim'] else 'fails'}  {'worse' if r['worse'] else 'within'}")
    bad = problems(runs)
    for line in bad:
        print(f"problem: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
