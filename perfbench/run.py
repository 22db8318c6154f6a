#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the simulator from
src/) into .bench_build/ (or $CARGO_TARGET_DIR); later runs rebuild only
what changed. The benchmark's own output is passed through: its last
line on stdout is the JSON result. Exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("table2", "design_sweep", "serve_mix")
RUN_TIMEOUT_S = 170


def build(source: Path, build_dir: Path) -> Path:
    """Configure and build (incrementally); returns the benchmark binary."""
    # Build logs go to stderr so stdout carries only the result.
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(
        ["cmake", "-S", str(source), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release", *generator],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", "4"],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = out if out.is_absolute() else root / out
    try:
        binary = build(root / "perfbench", out / "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        spans = out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-{args.seed}.jsonl")]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
