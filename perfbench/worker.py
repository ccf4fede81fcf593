"""One measured process: ``python3 -m perfbench.worker MODE WORKLOAD SEED T0``.

MODE is ``setup`` (import and validate only), ``run`` (the workload,
untraced) or ``trace`` (the workload under the tracer).  T0 is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` runs from process start until the first ``RunConfig.validate()``
returns.  The last line of standard output is one JSON object.
"""

import importlib
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from perfbench.probe import SpeedProbe  # noqa: E402
from perfbench.spec import WORKLOADS  # noqa: E402
from starcayley.report import ALL_SUITES, RunConfig, run  # noqa: E402

MODULES = ("report", "jordan", "kkt", "linalg", "chart", "weyl", "starrep", "hds", "poly", "scalars")


def oracle_mismatches(got: dict, oracle: dict, suites) -> list:
    """Fields of a report that differ from the committed one, timings aside.

    Only the suites that ran are compared; constants are compared where the
    run produced them, and all of them must be present after a full run.
    """
    bad = [k for k in ("algebra", "mu") if got[k] != oracle[k]]
    bad += [f"suites.{s}" for s in suites if got["suites"].get(s) != oracle["suites"][s]]
    full = set(suites) == set(ALL_SUITES)
    if full and set(got["constants"]) != set(oracle["constants"]):
        bad.append("constants")
    bad += [
        f"constants.{k}" for k, v in got["constants"].items() if oracle["constants"].get(k) != v
    ]
    want_passed = all(oracle["suites"][s]["passed"] for s in suites)
    if got["passed"] != want_passed:
        bad.append("passed")
    return bad


def run_workload(configs, oracles):
    """Run every config; returns (call intervals, attempted, failures)."""
    failures = []
    calls = []
    for config in configs:
        t = time.perf_counter()
        try:
            rep = run(config)
        except Exception as exc:  # a raising call is a failed call
            calls.append((t, time.perf_counter()))
            failures.append(f"{config.algebra} {config.suites}: {type(exc).__name__}: {exc}")
            continue
        calls.append((t, time.perf_counter()))
        got = json.loads(json.dumps(rep.to_json()))
        bad = oracle_mismatches(got, oracles[config.algebra], config.suites)
        if bad:
            failures.append(f"{config.algebra} {config.suites}: differs from oracle in {bad}")
    return calls, len(configs), failures


def main(argv) -> int:
    mode, workload, seed, t0 = argv[0], argv[1], int(argv[2]), float(argv[3])
    configs = [RunConfig(algebra=a, suites=s, seed=seed) for a, s in WORKLOADS[workload]]
    configs[0].validate()
    out = {"setup_s": time.monotonic() - t0}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    oracles = {}
    for config in configs:
        path = ROOT / "reports" / (config.algebra.replace(":", "_") + ".json")
        oracles[config.algebra] = json.loads(path.read_text())
    tracer = None
    if mode == "trace":
        from perfbench.trace import Tracer

        tracer = Tracer({m: importlib.import_module(f"starcayley.{m}") for m in MODULES})
    elif mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    with SpeedProbe() as probe:
        calls, attempted, failures = run_workload(configs, oracles)
    out.update(
        verify_s=sum(probe.normalized(a, b) for a, b in calls),
        wall_s=sum(b - a for a, b in calls),
        attempted=attempted,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        from perfbench.spec import per_layer_values

        out["per_layer"] = per_layer_values(tracer)
        trace_dir = ROOT / ".bench_build" / "perfbench"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps(tracer.dump()))
        out["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
