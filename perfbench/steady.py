#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs each workload once per seed and prints, for every end-to-end
metric, the median, the quartile spread (Q3 - Q1) as a share of the
median, the metric's bound, and whether the spread stays within the
bound and within a third of it. Also checks that the share of failed
operations is identical in every run.

    python3 perfbench/steady.py                    # every workload, seeds 1..10
    python3 perfbench/steady.py --workload audit --seeds 5 --first-seed 11

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_once(bench["command"], workload, seed, bench["run_seconds"])
            results.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: correct in every run: {correct}; "
              f"failed share identical: {len(shares) == 1} ({sorted(map(float, shares))})")
        print(f"  {'metric':<24} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            if name == "setup_s":
                verdict = "not gated"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                steady = False
            print(f"  {name:<24} {med:>14.4f} {spread:>8.4f} {bound:>6.3f}  {verdict}")
        steady = steady and correct and len(shares) == 1
        print()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
