#!/usr/bin/env python3
"""Runs each benchmark workload k times, each with another seed, and prints
every metric's median, quartiles and spread (the interquartile distance as a
share of the median, with quartiles from statistics.quantiles(values, n=4)).

Run from the repository root:

    python3 perfbench/repeat.py -k 10 --seconds 15 switch-n1024 fig6-daemon

With no workload named, every workload in BENCHMARK.json runs. --json saves
every run's result line for later comparison.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarize(workload, runs, walls):
    print(f"== {workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"   failed/attempted: {sorted(shares)}  correct: {all(r['correct'] for r in runs)}")
    names = sorted(runs[0]["metrics"])
    print(f"   {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"   {name + ' (' + unit + ')':34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("-k", type=int, default=10, help="runs per workload")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0+i")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="append every run's result to this JSON-lines file")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for w in workloads:
        runs, walls = [], []
        for i in range(args.k):
            res, wall = run_once(w, args.seed0 + i, seconds, args.trace)
            runs.append(res)
            walls.append(wall)
            if args.json:
                with open(args.json, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": args.seed0 + i, "wall_s": wall, **res}) + "\n")
        summarize(w, runs, walls)


if __name__ == "__main__":
    main()
