#!/usr/bin/env python3
"""Benchmark of the starcayley verifier, driven through ``report.run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a starcayley checkout.  Every measurement happens in
a fresh worker process (``perfbench/worker.py``), one at a time, so imports
and lazily built artifacts never carry over between samples.

``--trace 0`` measures the end-to-end metrics:

* ``verify_s``: wall time of the workload's ``report.run`` calls, normalized
  for the host's speed while they ran (``perfbench/probe.py``); one worker
  per iteration, iterations repeat until S seconds have passed, and the
  median is reported next to the raw wall times;
* ``setup_s``: from starting a worker until its first ``RunConfig.validate()``
  returns, median over every worker started after one warm-up worker that
  fills the bytecode cache (kept under ``.bench_build/``, whatever
  ``PYTHONDONTWRITEBYTECODE`` says, so imports cost what an installed
  package costs);
* ``peak_rss_mb``: a run worker's ``ru_maxrss``, median over iterations.

``--trace 1`` runs the workload once untraced and once under the tracer
(``perfbench/trace.py``) and reports the per-layer metrics, including the
tracing overhead as traced minus untraced ``verify_s``.  Per-layer times
are plain wall seconds inside the traced worker.  Spans go to
``.bench_build/perfbench/``.

``--seed`` becomes ``RunConfig.seed``, which picks the star suite's random
test polynomials.  Every report must equal the committed
``reports/<instance>.json`` apart from ``timings``; a call that raises or
differs counts as failed.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # a run must exit within 180 s
SETUP_SAMPLES = 11

WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
WORKER_ENV["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")


class BenchError(Exception):
    pass


def check_checkout():
    for need in ("src/starcayley/report.py", "reports", "BENCHMARK.json"):
        if not (ROOT / need).exists():
            raise BenchError(f"{need} not found under {ROOT}; run from a starcayley checkout")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    agree = (
        [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
        and [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]]
        == list(END_TO_END)
        and [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
        == [row[:3] for row in PER_LAYER]
    )
    if not agree:
        raise BenchError("BENCHMARK.json disagrees with perfbench/spec.py")


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    t0 = time.monotonic()
    if deadline - t0 <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, "-m", "perfbench.worker", mode, workload, str(seed), repr(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=deadline - t0
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish before the deadline") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"{mode} worker exited with {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, deadline: float):
    spawn("setup", workload, seed, deadline)  # warm-up: fills the bytecode cache
    setups = [spawn("setup", workload, seed, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs: list = []
    start = time.monotonic()
    longest = 0.0
    while not runs or time.monotonic() - start < seconds:
        if runs and deadline - time.monotonic() < 1.5 * longest:
            print(f"note: stopped after {len(runs)} iterations to meet the deadline")
            break
        t = time.monotonic()
        runs.append(spawn("run", workload, seed, deadline))
        longest = max(longest, time.monotonic() - t)
    setups += [r["setup_s"] for r in runs]
    verify = [r["verify_s"] for r in runs]
    wall = [r["wall_s"] for r in runs]
    rss = [r["peak_rss_mb"] for r in runs]
    values = {
        "verify_s": statistics.median(verify),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "verify_s": (
            f"median of {len(verify)} iteration(s): {_fmt(verify)};"
            f" wall time {_fmt(wall)} s"
        ),
        "setup_s": f"median of {len(setups)} worker starts",
        "peak_rss_mb": f"median of {len(rss)} iteration(s): {_fmt(rss)}",
    }
    return values, notes, runs


def trace(workload: str, seed: int, deadline: float):
    plain = spawn("run", workload, seed, deadline)
    traced = spawn("trace", workload, seed, deadline)
    values = dict(traced["per_layer"])
    values["trace.overhead_s"] = traced["verify_s"] - plain["verify_s"]
    notes = {
        "trace.overhead_s": (
            f"normalized: traced {traced['verify_s']:.3f} s - untraced {plain['verify_s']:.3f} s;"
            f" wall: {traced['wall_s']:.3f} s - {plain['wall_s']:.3f} s"
        ),
        "hds.candidate_hit_ratio": (
            f"equivalences found / {values['hds.candidates_tried']} candidates tried"
        ),
    }
    print(f"spans written to {traced['trace_file']}")
    return values, notes, [plain, traced]


def _fmt(xs) -> str:
    return ", ".join(f"{x:.4f}" for x in xs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        check_checkout()
        if args.trace:
            values, notes, workers = trace(args.workload, args.seed, deadline)
            units = {row[0]: row[1] for row in PER_LAYER}
        else:
            values, notes, workers = measure(args.workload, args.seed, args.seconds, deadline)
            units = {row[0]: row[1] for row in END_TO_END}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    for f in failures:
        print(f"FAILED {f}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {values[name]:>14.6g} {unit}{note}")
    print(
        f"  {'failed_ratio':40s} {len(failures) / attempted:>14.6g}"
        f"  ({len(failures)} failed / {attempted} report.run calls attempted)"
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
