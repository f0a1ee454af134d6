#!/usr/bin/env python3
"""Host-performance regression gate.

Compares a fresh google-benchmark JSON (scripts/bench_host.sh --check) against
the committed baseline report (BENCH_host.json at the repository root) and
fails if a gated microbench slowed down past the tolerance:

    perf_gate.py --gbench TMP/gbench.json [--baseline BENCH_host.json]

For every gated bench present in BOTH files, the fresh items_per_second must
be at least MIN_RATIO x the baseline's. The default tolerance is deliberately
loose (0.5: flag halvings, ignore noise) because CI containers are slow,
share cores, and differ from the machine that wrote the baseline; tighten via
the KSR_PERF_GATE_MIN_RATIO environment variable when the host is quiet.

Missing baseline file or missing entries are a SKIP, not a failure — the
gate must not brick CI on a fresh clone or after a bench rename. Only the
standard library is used.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# The simulator's hot loops, in the order they dominate wall time. Keep this
# list short: every entry is a potential false positive on a noisy host.
GATED = [
    "BM_EngineEventDispatch",
    "BM_FiberSwitch",
    "BM_FiberHandoff",
    # By full name: the spinning-fiber shape, and the uniform shape whose
    # slowdown the event queue's kReach bound keeps in check.
    "BM_EventQueueHold/32/0",
    "BM_EventQueueHold/128/1",
    "BM_RingTransaction",
    "BM_CoherentReadHit",
]


def load_rates(path: str, microbench_key: bool) -> dict[str, float]:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"perf_gate.py: cannot read {path}: {e}")
    out: dict[str, float] = {}
    if microbench_key:  # BENCH_host.json report schema
        for name, entry in data.get("microbench", {}).items():
            if "items_per_second" in entry:
                out[name] = float(entry["items_per_second"])
    else:  # raw google-benchmark schema
        for b in data.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            if "items_per_second" in b:
                out[b["name"]] = float(b["items_per_second"])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gbench", required=True,
                    help="fresh google-benchmark JSON output")
    ap.add_argument("--baseline", default="BENCH_host.json",
                    help="committed baseline report (default: BENCH_host.json)")
    args = ap.parse_args()

    if not os.path.exists(args.baseline):
        print(f"perf_gate.py: no baseline {args.baseline} — skipping gate")
        return 0
    min_ratio = float(os.environ.get("KSR_PERF_GATE_MIN_RATIO", "0.5"))
    fresh = load_rates(args.gbench, microbench_key=False)
    base = load_rates(args.baseline, microbench_key=True)

    failures = []
    checked = 0
    for name in GATED:
        # Raw gbench names carry /min_time: etc. suffixes in some configs;
        # match on the exact name first, then on a prefix.
        fresh_rate = fresh.get(name)
        if fresh_rate is None:
            cands = [v for k, v in fresh.items() if k.split("/")[0] == name]
            fresh_rate = cands[0] if cands else None
        base_rate = base.get(name)
        if base_rate is None:
            cands = [v for k, v in base.items() if k.split("/")[0] == name]
            base_rate = cands[0] if cands else None
        if fresh_rate is None or base_rate is None or base_rate <= 0:
            print(f"perf_gate.py: {name}: no comparable data — skipped")
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
        print(f"perf_gate.py: FAILED — regressed: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"perf_gate.py: OK ({checked} bench(es) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
