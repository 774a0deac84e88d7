#!/usr/bin/env python3
"""Stability harness: runs workloads repeatedly and checks run-to-run spread.

    python3 perfbench/stability.py [--workload NAME ...] [--runs 10]
        [--seconds S]

For each workload it makes two sets of `--runs` runs (seeds 1, 2, ...; both
sets use the same seeds), then one run on the held-out seed 7919. `--seconds`
defaults to BENCHMARK.json's run_seconds. Per end-to-end metric it prints each
set's median and quartiles (statistics.quantiles(n=4)) and the spread
(q3 - q1) / median, and flags:
  SPREAD   spread above the metric's bound from BENCHMARK.json,
  TIGHT    spread above a third of the bound (the target for a steady
           benchmark),
  DRIFT    the second set's median off the first set's by more than the
           bound, in either direction,
  HOLDOUT  the held-out seed's value off the first median by more than the
           bound, in either direction.
It also checks the percentile rule on every run's latency modes (each op
class split by the cache outcome and constraint recheck its ops met): no
mode's cumulative share (modes ordered by median latency) within 5 points of
a reported percentile, and at least 10 samples beyond p95. Exits 1 if
anything is flagged other than TIGHT.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
FIRST_SEED = 1
HOLDOUT_SEED = 7919


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
    info = next((json.loads(l)["info"] for l in lines if l.startswith('{"info"')),
                None)
    return info, json.loads(lines[-1])


def percentile_rule(info):
    """Problems with the reported percentiles' mode boundaries in one run:
    latency modes ordered by median latency, per latency metric."""
    problems = []
    for metric, percentiles in (("query", (50, 95)), ("insert", (50, 95)),
                                ("delete", (50,))):
        modes = [m for m in info["modes"].values() if m["metric"] == metric]
        total = sum(m["ops"] for m in modes)
        if not total:
            continue
        cumulative = 0
        for m in sorted(modes, key=lambda m: m["p50_ms"])[:-1]:
            cumulative += 100.0 * m["ops"] / total
            for p in percentiles:
                if abs(cumulative - p) < 5:
                    problems.append(f"{metric} mode boundary at "
                                    f"{cumulative:.1f}% is within 5 points "
                                    f"of p{p}")
        tail = total * (100 - max(percentiles)) / 100
        if tail < 10:
            problems.append(f"{metric}: only {tail:.0f} samples beyond "
                            f"p{max(percentiles)}")
    return problems


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def off_by(new, old):
    """How far `new` is from `old`, as a share of `old`."""
    return abs(new - old) / old if old else 0.0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    failed = False
    for workload in workloads:
        sets = []
        for _ in range(SETS):
            runs = []
            for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
                info, result = run_once(workload, seed, args.seconds)
                for problem in percentile_rule(info):
                    print(f"PERCENTILE {workload} seed {seed}: {problem}")
                    failed = True
                runs.append(result["metrics"])
            sets.append(runs)
        _, holdout = run_once(workload, HOLDOUT_SEED, args.seconds)
        print(f"\n== {workload}: {SETS} x {args.runs} runs of "
              f"{args.seconds} s, held-out seed {HOLDOUT_SEED}")
        print(f"{'metric':20} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7}  flags")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for s, runs in enumerate(sets):
                median, q1, q3, spread = summary(
                    [r[name]["value"] for r in runs])
                flags = []
                if spread > bound:
                    flags.append("SPREAD")
                    failed = True
                elif spread > bound / 3:
                    flags.append("TIGHT")
                if first_median is None:
                    first_median = median
                elif off_by(median, first_median) > bound:
                    flags.append("DRIFT")
                    failed = True
                print(f"{name:20} {s + 1:>3} {median:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.3f}  {' '.join(flags)}")
            value = holdout["metrics"][name]["value"]
            flag = ""
            if off_by(value, first_median) > bound:
                flag = "HOLDOUT"
                failed = True
            print(f"{name:20} {'h':>3} {value:>12.6g} {'':>12} {'':>12} "
                  f"{'':>7}  {flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
