#!/usr/bin/env python3
"""Build and run the repository benchmark (see ksrbench/README.md).

One workload, the result as a JSON object on the last line of stdout:

    python3 ksrbench/run.py --workload table2_is --seed 1 --seconds 30 --trace 0

Every workload, as a table of end-to-end metrics (add --trace 1 for the
per-layer metrics); exits non-zero if any check fails:

    python3 ksrbench/run.py --all [--seed 1] [--seconds 30] [--trace 0]

Run it from anywhere inside a source checkout. The first run configures and
builds the simulator and the benchmark into .bench_build/ at the checkout
root; later runs only rebuild what changed. Scratch files go to .bench_out/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "ksrbench"
WORKLOADS = ["table2_is", "fig4_barriers", "is128_modeB", "serve_mix"]


def build():
    """Configure once, then build incrementally. Build output goes to stderr
    so the benchmark's result stays the last line of stdout."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("ksrbench: build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace, capture):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def run_all(seed, seconds, trace):
    failed = False
    print(f"ksrbench: seed {seed}, {seconds} s per workload, trace {trace}")
    for workload in WORKLOADS:
        proc = run_one(workload, seed, seconds, trace, capture=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"] if not trace else {}
        except (IndexError, ValueError, KeyError):
            print(f"\n== {workload}: no result (exit {proc.returncode})")
            failed = True
            continue
        ok = proc.returncode == 0 and result["correct"]
        failed |= not ok
        print(f"\n== {workload}: {'ok' if ok else 'FAILED'}, "
              f"{result['attempted']} attempted, {result['failed']} failed")
        for name, m in {**detail, **result["metrics"]}.items():
            print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload NAME or --all")
    build()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace,
                   capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
