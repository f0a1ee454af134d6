#!/usr/bin/env python3
"""Host-performance regression gate.

Runs the gated microbenches of a build's bench_sim_throughput and compares
them against the committed baseline report (BENCH_host.json at the
repository root); fails if a gated microbench slowed down past the
tolerance:

    perf_gate.py --build-dir build [--baseline BENCH_host.json]

For every gated bench, the fresh items_per_second must be at least
MIN_RATIO x the baseline's. The default tolerance is deliberately loose
(0.5: flag halvings, ignore noise) because CI containers are slow, share
cores, and differ from the machine that wrote the baseline; tighten via the
KSR_PERF_GATE_MIN_RATIO environment variable when the host is quiet.

A gated name the binary does not report fails the gate. A missing baseline
file, or a name missing from it, is a SKIP, not a failure — the gate must
not brick CI on a fresh clone or before a baseline is re-recorded. Only the
standard library is used.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# The simulator's hot loops, in the order they dominate wall time, by full
# google-benchmark name (arguments included). Keep this list short: every
# entry is a potential false positive on a noisy host.
GATED = [
    "BM_EngineEventDispatch",
    "BM_FiberSwitch",
    "BM_FiberHandoff/32",
    # The spinning-fiber shape, and the uniform shape whose slowdown the
    # event queue's kReach bound keeps in check.
    "BM_EventQueueHold/32/0",
    "BM_EventQueueHold/128/1",
    "BM_RingTransaction",
    "BM_CoherentReadHit",
    # Page allocation with eviction and locked ways (IS's 1/64 geometry).
    "BM_LocalCacheEvict",
]


def run_gated(build_dir: str) -> dict[str, float]:
    binary = os.path.join(build_dir, "bench", "bench_sim_throughput")
    cmd = [binary, f"--benchmark_filter=^({'|'.join(GATED)})$",
           "--benchmark_min_time=0.05", "--benchmark_format=json"]
    try:
        out = subprocess.run(cmd, check=True, capture_output=True,
                             text=True).stdout
        data = json.loads(out)
    except (OSError, subprocess.CalledProcessError,
            json.JSONDecodeError) as e:
        raise SystemExit(f"perf_gate.py: {binary} failed: {e}")
    return {b["name"]: float(b["items_per_second"])
            for b in data.get("benchmarks", [])
            if b.get("run_type") != "aggregate" and "items_per_second" in b}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", required=True,
                    help="build tree holding bench/bench_sim_throughput")
    ap.add_argument("--baseline", default="BENCH_host.json",
                    help="committed baseline report (default: BENCH_host.json)")
    args = ap.parse_args()

    if not os.path.exists(args.baseline):
        print(f"perf_gate.py: no baseline {args.baseline} — skipping gate")
        return 0
    try:
        with open(args.baseline, encoding="utf-8") as f:
            base = json.load(f).get("microbench", {})
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"perf_gate.py: cannot read {args.baseline}: {e}")
    min_ratio = float(os.environ.get("KSR_PERF_GATE_MIN_RATIO", "0.5"))
    fresh = run_gated(args.build_dir)

    failures = []
    checked = 0
    for name in GATED:
        fresh_rate = fresh.get(name)
        base_rate = base.get(name, {}).get("items_per_second", 0)
        if fresh_rate is None:
            print(f"perf_gate.py: {name}: not reported by bench_sim_throughput")
            failures.append(name)
            continue
        if base_rate <= 0:
            print(f"perf_gate.py: {name}: no baseline — skipped")
            continue
        checked += 1
        ratio = fresh_rate / base_rate
        status = "ok" if ratio >= min_ratio else "REGRESSED"
        print(f"perf_gate.py: {name}: {fresh_rate:.3e} vs baseline "
              f"{base_rate:.3e} items/s (ratio {ratio:.2f}, "
              f"min {min_ratio:.2f}) {status}")
        if ratio < min_ratio:
            failures.append(name)

    if failures:
        print(f"perf_gate.py: FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"perf_gate.py: OK ({checked} bench(es) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
