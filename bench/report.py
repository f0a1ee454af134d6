#!/usr/bin/env python3
"""Merge host-side benchmark outputs into one JSON report.

Inputs (all produced by scripts/bench_host.sh):
  --gbench FILE   google-benchmark --benchmark_format=json output
  --host FILE     file containing one "[host] bench=... events_dispatched=...
                  wall_ms=... jobs=..." line (repeatable). An "alias=FILE"
                  form records the entry under "alias" instead of the bench
                  name on the line (used for the --jobs 1 serial baseline,
                  whose bench name collides with the parallel run).
  --mode MODE     "quick" or "full" (recorded verbatim)
  --out FILE      where to write the merged JSON

Output schema (BENCH_host.json):
  {
    "mode": "full",
    "host_cores": 8,           # os.cpu_count() on the measuring host
    "microbench": {            # from google-benchmark, one entry per bench
      "BM_EngineEventDispatch": {"items_per_second": ..., "cpu_ns": ...},
      ...
    },
    "paper_bench": {           # from the [host] lines
      "table2_is": {"events_dispatched": ..., "wall_ms": ..., "jobs": ...,
                    "sim_threads": ..., "quanta": ...},
      "table2_is_jobs1": {...},   # serial baseline of the same binary; the
      ...                         # wall_ms ratio is the parallel speedup
      "fig8_scaleout_st1": {...,  # 128/512/1088-cell sharded-directory CG+IS
        "points": {               # per-(kernel, procs) scale-out telemetry
          "cg_p128": {"quanta": ..., "barrier_wait_ppm": ...,
                      "ring_util_ppm_l0": ..., "ring_util_ppm_l1": ...,
                      "hot_shard": ..., "hot_shard_requests": ...},
          ...}},
      "fig8_scaleout_st4": {...}, # ... same machines on 4 engine threads;
                                  # wall_ms ratio = multi-domain speedup
      "fig8_warmstart": {...,     # --warm-start sweep: IS points forked from
        "warm_saved_ms": ...}     # warm-up checkpoints; warm_saved_ms is the
    }                             # wall clock the forks skipped
  }

Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

# jobs=, sim_threads=, quanta= and warm_saved_ms= are optional so reports can
# still be built from pre-runner [host] lines (older binaries, older
# branches). warm_saved_ms appears only on --warm-start runs and records the
# wall-clock the checkpoint forks saved (docs/CHECKPOINT.md).
HOST_RE = re.compile(
    r"^\[host\] bench=(\S+) events_dispatched=(\d+) wall_ms=(\d+)"
    r"(?: jobs=(\d+))?(?: sim_threads=(\d+))?(?: quanta=(\d+))?"
    r"(?: warm_saved_ms=(\d+))?\s*$"
)

# Per-point scale-out telemetry (bench_fig8_speedup --scale-out): one line
# per (kernel, procs) with the quantum-barrier wait fraction (host wall
# clock, ppm), peak per-level ring utilization (simulated, ppm) and the
# hottest directory shard. hot_shard is -1 on single-leaf points.
POINT_RE = re.compile(
    r"^\[host\] point bench=(\S+) kernel=(\S+) procs=(\d+) quanta=(\d+)"
    r" barrier_wait_ppm=(\d+) ring_util_ppm_l0=(\d+) ring_util_ppm_l1=(\d+)"
    r" hot_shard=(-?\d+) hot_shard_requests=(\d+)\s*$"
)


def parse_gbench(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"report.py: bad google-benchmark json {path}: {e}")
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise SystemExit(
            f"report.py: {path}: no 'benchmarks' array — not a "
            f"google-benchmark --benchmark_format=json file?")
    out = {}
    for b in benchmarks:
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        if name is None:
            # Fail with the offending entry rather than a bare KeyError
            # stack trace: a truncated or hand-edited baseline should say
            # which record is broken.
            raise SystemExit(
                f"report.py: {path}: benchmark entry missing the 'name' "
                f"key: {json.dumps(b)[:200]}")
        out[name] = entry = {"cpu_ns": b.get("cpu_time")}
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
    return out


def parse_host(spec: str) -> dict:
    alias, sep, path = spec.partition("=")
    if not sep:
        alias, path = "", spec
    entry = None
    name = None
    points = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = POINT_RE.match(line.strip())
            if m:
                points[f"{m.group(2)}_p{m.group(3)}"] = {
                    "quanta": int(m.group(4)),
                    "barrier_wait_ppm": int(m.group(5)),
                    "ring_util_ppm_l0": int(m.group(6)),
                    "ring_util_ppm_l1": int(m.group(7)),
                    "hot_shard": int(m.group(8)),
                    "hot_shard_requests": int(m.group(9)),
                }
                continue
            m = HOST_RE.match(line.strip())
            if m and entry is None:
                name = alias or m.group(1)
                entry = {
                    "events_dispatched": int(m.group(2)),
                    "wall_ms": int(m.group(3)),
                }
                if m.group(4) is not None:
                    entry["jobs"] = int(m.group(4))
                if m.group(5) is not None:
                    entry["sim_threads"] = int(m.group(5))
                if m.group(6) is not None:
                    entry["quanta"] = int(m.group(6))
                if m.group(7) is not None:
                    entry["warm_saved_ms"] = int(m.group(7))
    if entry is None:
        raise SystemExit(f"report.py: no [host] line found in {path}")
    if points:
        entry["points"] = points
    return {name: entry}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gbench", required=True)
    ap.add_argument("--host", action="append", default=[])
    ap.add_argument("--mode", default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    report = {"mode": args.mode, "host_cores": os.cpu_count(),
              "microbench": parse_gbench(args.gbench), "paper_bench": {}}
    for path in args.host:
        report["paper_bench"].update(parse_host(path))

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"report.py: {len(report['microbench'])} microbenches, "
          f"{len(report['paper_bench'])} paper benches -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
