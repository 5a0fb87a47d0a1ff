#!/usr/bin/env python3
"""Steadiness report: runs a workload N times and summarizes each metric.

Usage (from the root of the repository):

    python3 perfbench/steadiness.py --workload analytics_cold --runs 10
    python3 perfbench/steadiness.py --workload all --runs 5 --trace 1

Run i uses seed --seed-base + i, so every run draws other inputs, as the
benchmark's acceptance runs do. For each metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)), the spread (distance between
the quartiles as a share of the median) and the largest deviation of a single
run from the median. For end-to-end metrics the spread is compared with the
metric's bound in BENCHMARK.json: the benchmark aims for spreads below a
third of the bound, and the acceptance runs refuse a spread above it
(setup_s is exempt from the spread rule). Exits 1 if a run fails, answers
wrongly, or an end-to-end spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookup_hot", "analytics_cold", "ingest_mixed")


def run_once(workload, seed, seconds, trace, full=False):
    """The result line of one run (with full=True, the program's report line
    before it); None if the run failed."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None
    return json.loads(lines[-2] if full else lines[-1])


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    worst = max(abs(v - med) for v in values) / abs(med) if med else 0.0
    return med, q1, q3, spread, worst


def report(workload, runs, bounds):
    """Prints the table for one workload; returns False on a failure."""
    ok = True
    bad = [r for r in runs if r is None or not r["correct"] or r["failed"]]
    if bad:
        print(f"{workload}: {len(bad)} of {len(runs)} runs failed or were "
              "incorrect")
        ok = False
    runs = [r for r in runs if r is not None]
    if not runs:
        return False
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':38s} {'unit':>8s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread%':>8s} {'maxdev%':>8s} {'bound%':>7s}")
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        unit = runs[0]["metrics"][name]["unit"]
        med, q1, q3, spread, worst = summarize(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if name != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  over 1/3 of bound"
        print(f"  {name:38s} {unit:>8s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread * 100:8.2f} {worst * 100:8.2f} "
              f"{'' if bound is None else f'{bound * 100:7.1f}'}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    ok = True
    for w in workloads:
        runs = []
        for i in range(args.runs):
            r = run_once(w, args.seed_base + i, seconds, args.trace)
            runs.append(r)
            status = "failed" if r is None else (
                "ok" if r["correct"] else "INCORRECT")
            print(f"  {w} seed {args.seed_base + i}: {status}",
                  file=sys.stderr, flush=True)
        ok = report(w, runs, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
