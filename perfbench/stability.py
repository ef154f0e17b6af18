#!/usr/bin/env python3
"""Stability report: two sets of benchmark runs on the same commit.

    python3 perfbench/stability.py                  # every workload, 10 seeds, 2 sets
    python3 perfbench/stability.py --workloads mixed_rw --seeds 5 --sets 1

Runs each workload once per seed and set, alternating which set runs first
from one seed to the next.  For every workload and end-to-end metric it
prints each set's median and quartiles, the spread (interquartile distance
over the median, as statistics.quantiles(values, n=4) gives the quartiles),
whether that spread is within the metric's bound (and within a third of
it), and whether the two sets' medians differ by no more than the bound.
Seeds run from 1, and each run measures BENCHMARK.json's run_seconds.
Run from the root of a source checkout; raw results go to
.perfbench/stability.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    return (second - first) / first if better == "lower" else (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=2)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    raw = {}
    ok = True
    for w in workloads:
        sets = [[] for _ in range(args.sets)]
        for i in range(args.seeds):
            seed = 1 + i
            order = list(range(args.sets)) if i % 2 == 0 else list(reversed(range(args.sets)))
            for s in order:
                sets[s].append(run_once(w, seed, seconds, 0))
                print(f"  {w} seed {seed} set {s + 1}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in sets[s][-1].items()),
                      flush=True)
        raw[w] = sets
        print(f"\n{w}: {args.seeds} seeds x {args.sets} sets, {seconds}s per run")
        print(f"  {'metric':<16} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12}"
              f" {'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(sets):
                q1, q2, q3, spread = summary([r[name] for r in runs])
                meds.append(q2)
                if spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
                    ok = False
                print(f"  {name:<16} {s + 1:>3} {q1:>12.6g} {q2:>12.6g} {q3:>12.6g}"
                      f" {spread:>7.3f} {bound:>6.2f}  {verdict}")
            if len(meds) == 2:
                d = worse_by(meds[0], meds[1], m["better"])
                agree = abs(d) <= bound
                ok = ok and agree
                print(f"  {name:<16} set 2 vs 1: {100 * d:+.1f}% worse "
                      f"({'agree' if agree else 'DISAGREE'} within {bound})")
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "stability.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print("\nall within bounds" if ok else "\nSOME METRIC OUTSIDE ITS BOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
