#!/usr/bin/env bash
# Output digests of every paper bench and campaign preset (bench/golden.tsv).
#
#   scripts/golden.sh [--build-dir DIR] [--check]
#
# Runs each bench/bench_*.cpp binary (bench_sim_throughput excepted) at
# --quick --csv with every observability output on, and each
# presets/campaigns/*.json through `ksrsim campaign`, then writes one
# `<source> <output> <digest>` row per file: stdout, the [host]
# events_dispatched, the trace/metrics CSVs, the report, the topo report and
# its matrix CSV where one is written, and each campaign's .jsonl and .csv.
# Default: re-record bench/golden.tsv at --jobs 1. --check runs at --jobs 4,
# writes golden.tsv in the current directory and diffs it against
# bench/golden.tsv; every differing row names the bench and the file.
set -euo pipefail
BUILD_DIR=build JOBS=1 OUT=bench/golden.tsv CHECK=0
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$(cd "$2" && pwd)"; shift 2 ;;
    --check) CHECK=1 JOBS=4 OUT="$PWD/golden.tsv"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done
cd "$(dirname "$0")/.."
T="$(mktemp -d)"
trap 'rm -rf "$T"' EXIT
digest() { sha256sum "$1" | cut -c1-16; }
for src in bench/bench_*.cpp; do
  b=$(basename "$src" .cpp)
  [ "$b" = bench_sim_throughput ] && continue
  "$BUILD_DIR/bench/$b" --quick --csv --jobs "$JOBS" --trace-out="$T/$b.trace.csv" \
    --metrics-csv="$T/$b.metrics.csv" --report="$T/$b.report.txt" \
    --topo-report="$T/$b.topo.txt" > "$T/$b.stdout" 2> "$T/$b.err" ||
    { echo "golden.sh: $b failed:" >&2; cat "$T/$b.err" >&2; exit 1; }
  printf '%s\tevents\t%s\n' "$b" \
    "$(sed -n 's/^\[host\] .*events_dispatched=\([0-9]*\).*/\1/p' "$T/$b.err")"
  for f in stdout trace.csv metrics.csv report.txt topo.txt topo.txt.matrix.csv; do
    if [ -e "$T/$b.$f" ]; then printf '%s\t%s\t%s\n' "$b" "$f" "$(digest "$T/$b.$f")"; fi
  done
done > "$T/golden.tsv"
for m in presets/campaigns/*.json; do
  c=$(basename "$m" .json)
  "$BUILD_DIR/tools/ksrsim" campaign "$m" --jobs "$JOBS" --store "$T/store.$c" \
    --out "$T/$c" 2> "$T/$c.err" ||
    { echo "golden.sh: campaign $c failed:" >&2; cat "$T/$c.err" >&2; exit 1; }
  for f in jsonl csv; do printf '%s\t%s\t%s\n' "$c.json" "$f" "$(digest "$T/$c.$f")"; done
done >> "$T/golden.tsv"
mv "$T/golden.tsv" "$OUT"
[ "$CHECK" = 0 ] || diff -u bench/golden.tsv "$OUT" ||
  { echo "golden.sh: outputs differ from bench/golden.tsv (-want +got)" >&2; exit 1; }
