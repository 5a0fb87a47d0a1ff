#!/usr/bin/env python3
"""Runs one workload of the Sinew benchmark and prints its result.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload lookup_hot --seed 1 --seconds 10 --trace 0

Builds the benchmark program from source first (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build), then runs it once in a scratch
directory under the build directory and removes that directory afterwards.

Standard output ends with two JSON lines: the program's full report (its
metrics plus the per-seed counts the determinism check compares), then the
result line {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run; the
traced run also writes a Chrome trace, which must pass
bench/validate_trace.py.

Exits non-zero, without a result line, if the program cannot be built or
does not produce a report.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookup_hot", "analytics_cold", "ingest_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "sinew_perfbench")


def validate_trace(path):
    validator = os.path.join(ROOT, "bench", "validate_trace.py")
    proc = subprocess.run([sys.executable, validator, path],
                          stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    out = build_dir()
    try:
        binary = build(os.path.join(out, "perfbench"))
    except (OSError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    run_dir = os.path.join(out, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    trace_file = os.path.join(run_dir, "trace.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(run_dir, "db")]
    if args.trace:
        cmd += ["--trace-out", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: program exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        report = json.loads(lines[-1])
        correct = bool(report["correct"])
        if args.trace and not validate_trace(trace_file):
            correct = False
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as e:
        print(f"perfbench: unreadable report: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for err in report.get("errors", []):
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
