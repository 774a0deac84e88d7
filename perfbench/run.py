#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The driver is compiled with CMake (perfbench/CMakeLists.txt) into the
directory named by $CARGO_TARGET_DIR, or .bench_build at the root of the
checkout. Build output goes to standard error, so the last line of standard
output is the driver's JSON result. Exits nonzero, without a result, when the
engine sources are missing, the build fails, or the driver fails an oracle
check.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DRIVER_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(out), "--target", "perfbench_driver",
             "-j", "4"],
            check=True, stdout=sys.stderr)
    return out / "perfbench_driver"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: engine sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        driver = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    try:
        proc = subprocess.run(
            [str(driver), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 3
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        print("perfbench: malformed or incorrect result", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
