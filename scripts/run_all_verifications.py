#!/usr/bin/env python3
"""Run every verification suite on every built-in instance and print a summary.

Writes one JSON report per instance into reports/ (created if missing).
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from starcayley.report import ALL_SUITES, BUILTIN_SELECTORS, RunConfig, run


def main() -> int:
    out_dir = pathlib.Path(__file__).resolve().parents[1] / "reports"
    out_dir.mkdir(exist_ok=True)
    any_failed = False
    for sel in BUILTIN_SELECTORS:
        config = RunConfig(algebra=sel, mu=1, suites=ALL_SUITES)
        config.validate()
        t0 = time.perf_counter()
        rep = run(config)
        elapsed = time.perf_counter() - t0
        path = out_dir / f"{sel.replace(':', '_')}.json"
        path.write_text(json.dumps(rep.to_json(), indent=2) + "\n")
        marks = " ".join(
            f"{name}={'ok' if rep.suites[name].get('passed') else 'FAIL'}"
            for name in ALL_SUITES
        )
        print(f"{sel:8s} {elapsed * 1000:8.1f} ms  {marks}")
        any_failed = any_failed or not rep.passed
    print("reports written to", out_dir)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
