#!/usr/bin/env python3
"""Run each workload k times with different seeds and summarise the spread.

    python3 perfbench/steadiness.py --runs 10 --seconds 12
    python3 perfbench/steadiness.py --workload portal_pages --runs 5 --first-seed 100

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), min, max and the
spread: the distance between the quartiles as a share of the median.
The end-to-end bounds in ``BENCHMARK.json`` are set from this spread.
Runs are sequential; nothing else should load the host meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(results: list) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for workload in workloads:
        results = [
            run_once(workload, args.first_seed + k, seconds)
            for k in range(args.runs)
        ]
        summary = summarise(results)
        correct = all(r["correct"] for r in results)
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, correct={correct}")
        print(f"   attempted {[r['attempted'] for r in results]}")
        print(f"   failed    {[r['failed'] for r in results]}")
        print(f"   {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
              f"{'max':>12} {'spread':>7} {'bound':>6}")
        for name, row in summary.items():
            bound = bounds.get(name)
            print(f"   {name:34} {row['median']:12.4f} {row['q1']:12.4f} {row['q3']:12.4f} "
                  f"{row['min']:12.4f} {row['max']:12.4f} {row['spread']:7.3f} "
                  f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
