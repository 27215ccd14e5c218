#!/usr/bin/env python3
"""Self-test of the benchmark: python3 bench/selftest.py from a checkout.

Runs every workload end to end, and the traced run, on a few tiny inputs
and checks that every metric BENCHMARK.json names is reported with no
failed operation.  Checks on the full-size inputs that the same seed
reproduces a workload's fingerprint and that another seed changes it.
Checks that the benchmark refuses to run without the package source.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# Tiny slot tables: two small graphs per workload, plus the controls.
TINY = {
    "LADDER": [(8, 1, 0.5), (9, 1, 0.5)],
    "STREAM": [(20, 1), (21, 1)],
    "KMN": [(8, 1), (9, 1)],
    "CLI": [(5, 1), (6, 1)],
}


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if code == 0 else None


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    cw = run.fresh_import()

    for name, wl in run.WORKLOADS.items():
        gen = wl.generate
        first = workloads.fingerprint(gen(1, cw))["sha256"]
        check(workloads.fingerprint(gen(1, cw))["sha256"] == first, f"{name}: seed 1 reproduces its fingerprint")
        check(workloads.fingerprint(gen(2, cw))["sha256"] != first, f"{name}: seed 2 changes the fingerprint")

    for key, slots in TINY.items():
        setattr(workloads, key, slots)
    runs = [(name, 0, spec["end_to_end"]) for name in run.WORKLOADS]
    runs.append(("report_ladder", 1, spec["per_layer"]))
    for name, trace, wanted in runs:
        code, result = run_main(["--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)])
        label = f"{name} --trace {trace}"
        check(code == 0, f"{label}: exits 0")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{label}: {result['attempted']} attempted, failed_ratio 0")
        metrics = result["metrics"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        check(not missing, f"{label}: every metric present {missing or ''}")
        units = all(metrics[m["name"]]["unit"] == m["unit"] for m in wanted)
        check(units, f"{label}: units match BENCHMARK.json")
        finite = all(math.isfinite(v["value"]) for v in metrics.values())
        check(finite, f"{label}: values are finite")
        if trace == 0:
            positive = all(metrics[m["name"]]["value"] > 0 for m in wanted)
            check(positive, f"{label}: end-to-end metrics are above 0")

    run.SRC = BENCH / "no-such-src"
    code, _ = run_main(["--workload", "report_ladder", "--seed", "1", "--seconds", "1"])
    check(code != 0, "refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
