#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json once untraced and once traced,
with a short window, and checks that each run is correct, failed nothing,
and printed exactly the metric names and units BENCHMARK.json lists
(end_to_end for --trace 0, per_layer for --trace 1). Exits non-zero on
the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: str) -> dict:
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            result = run(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"]:
                print(f"FAIL {where}: incorrect ({result['failed']} failed)")
                return 1
            if got != expected[trace]:
                print(f"FAIL {where}: metrics differ: "
                      f"missing {sorted(set(expected[trace]) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected[trace]))}, "
                      f"units {sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])}")
                return 1
            print(f"ok   {where}: {len(got)} metrics, "
                  f"{result['attempted']} attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
