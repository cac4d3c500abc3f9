"""Self-test of the benchmark harness on reduced workloads.

    python3 perfbench/selftest.py

Runs every workload with one small input, untraced and traced, and checks that
each metric named in BENCHMARK.json is emitted with its unit and a finite value,
that no operation failed, and that the traced run leaves a span file behind.
It takes about half a minute.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run
from workloads import WORKLOADS

REDUCED_EPOCHS = 30


def expected_metrics() -> tuple[dict, dict]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check(result: dict, expected: dict, label: str) -> list[str]:
    problems = []
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is not None and (m["unit"] != unit or not math.isfinite(m["value"])):
            problems.append(f"{label}: {name} = {m}")
    return problems


def main() -> int:
    pkg = run.import_package()
    end_to_end, per_layer = expected_metrics()
    problems = []
    for name, workload in WORKLOADS.items():
        small = dataclasses.replace(workload, epochs=REDUCED_EPOCHS, instances=1)
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            label = f"{name} trace={int(trace)}"
            result = run.run_benchmark(pkg, small, seed=7, seconds=0.0, trace=trace, prov={})
            problems += check(result, expected, label)
            print(f"{label}: {result['attempted']} operations checked", file=sys.stderr)
        if not (run.OUT / f"trace-{name}-seed7.json").is_file():
            problems.append(f"{name}: no span file written")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
