#!/usr/bin/env python3
"""Determinism self-check of the Sinew benchmark.

Usage (from the root of the repository):

    python3 perfbench/selfcheck.py --workload ingest_mixed
    python3 perfbench/selfcheck.py --workload all --seed 7 --other-seed 8

For each workload:
  - two untraced runs with one seed must report identical write_amp and
    space_amp and identical per-seed counts (requests per class, commits,
    rows out, flushes, user bytes, engine counter deltas);
  - two traced runs with that seed must report identical counts and
    identical per-layer count metrics;
  - an untraced run with another seed must issue the same request classes
    and flush within one of the first seed's flush count.
Exits 1 on any difference.
"""

import argparse
import sys

import steadiness

# Per-layer metrics derived from clocks; every other per-layer metric is a
# count or a ratio of counts and must repeat exactly.
TIMED = {"durable_db.stall_share", "trace.seam_coverage",
         "trace.fixed_cost_share"}
TIME_UNITS = {"ms", "s", "ms/kdoc", "%"}


def full_report(workload, seed, seconds, trace):
    full = steadiness.run_once(workload, seed, seconds, trace, full=True)
    if full is None:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: run failed")
    return full


def diff(label, a, b, problems):
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            problems.append(f"{label}: {key} {a.get(key)} != {b.get(key)}")


def check(workload, seed, other, seconds):
    problems = []
    u1 = full_report(workload, seed, seconds, 0)
    u2 = full_report(workload, seed, seconds, 0)
    diff("untraced counts", u1["counts"], u2["counts"], problems)
    for name in ("write_amp", "space_amp"):
        diff("untraced", {name: u1["metrics"][name]["value"]},
             {name: u2["metrics"][name]["value"]}, problems)

    t1 = full_report(workload, seed, seconds, 1)
    t2 = full_report(workload, seed, seconds, 1)
    diff("traced counts", t1["counts"], t2["counts"], problems)

    def counted(report):
        return {k: v["value"] for k, v in report["metrics"].items()
                if v["unit"] not in TIME_UNITS and k not in TIMED}

    diff("traced per-layer", counted(t1), counted(t2), problems)

    o = full_report(workload, other, seconds, 0)
    classes = {k: v for k, v in u1["counts"].items()
               if k.startswith("requests") or k == "commits"}
    diff("other seed classes", classes,
         {k: o["counts"].get(k) for k in classes}, problems)
    if abs(o["counts"]["flushes"] - u1["counts"]["flushes"]) > 1:
        problems.append(f"other seed flushes {o['counts']['flushes']} vs "
                        f"{u1['counts']['flushes']}")
    for r in (u1, u2, t1, t2, o):
        if not r["correct"]:
            problems.append(f"incorrect run: {r['errors'][:3]}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=steadiness.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--other-seed", type=int, default=8)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    workloads = (steadiness.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    failed = False
    for w in workloads:
        problems = check(w, args.seed, args.other_seed, args.seconds)
        print(f"{w}: {'deterministic' if not problems else 'DIFFERS'}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
