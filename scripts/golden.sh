#!/usr/bin/env bash
# Output digests of every paper bench and campaign preset (bench/golden.tsv).
#
#   scripts/golden.sh [--build-dir DIR] [--check]
#
# Runs each bench/bench_*.cpp binary (bench_sim_throughput excepted), and
# bench_fig8_speedup again under --scale-out, --warm-start and --cold-start,
# at --quick --csv with every observability output on, and each
# presets/campaigns/*.json through `ksrsim campaign`, then writes one
# `<source> <output> <digest>` row per file: stdout, the [host]
# events_dispatched, the trace/metrics CSVs, the report, the topo report and
# its matrix CSV where one is written, and each campaign's .jsonl and .csv.
# It also asserts, naming the source:
#   - each bench run again with observability off prints the same stdout and
#     events_dispatched;
#   - --warm-start prints the --cold-start stdout and events_dispatched, and
#     --scale-out prints its `[host] point` lines;
#   - each campaign run a second time on the same store is 100% cache hits
#     and writes the same .jsonl/.csv, and the fig8_quick jobs' events sum
#     to bench_fig8_speedup's.
# Default: re-record bench/golden.tsv at --jobs 1 --sim-threads 1. --check
# runs at --jobs 4 --sim-threads 4, writes golden.tsv in the current
# directory and diffs it against bench/golden.tsv; every differing row names
# the source and the file.
set -euo pipefail
BUILD_DIR=build JOBS=1 THREADS=1 OUT=bench/golden.tsv CHECK=0 FAILED=0
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$(cd "$2" && pwd)"; shift 2 ;;
    --check) CHECK=1 JOBS=4 THREADS=4 OUT="$PWD/golden.tsv"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done
cd "$(dirname "$0")/.."
T="$(mktemp -d)"
trap 'rm -rf "$T"' EXIT
digest() { sha256sum "$1" | cut -c1-16; }
events() { sed -n 's/^\[host\] .*events_dispatched=\([0-9]*\).*/\1/p' "$1"; }
fail() { echo "golden.sh: $*" >&2; FAILED=1; }
die() { echo "golden.sh: $1 failed:" >&2; cat "$2" >&2; exit 1; }
# Same stdout and events_dispatched from runs $1 and $2 (file stems in $T).
same() { cmp -s "$T/$1.stdout" "$T/$2.stdout" && [ "$(events "$T/$1.err")" = "$(events "$T/$2.err")" ]; }

bench() {  # $1 = binary, $2.. = extra flags; the rows' source is "$*"
  local src="$*"; local k="${src// /}"
  local run=("$BUILD_DIR/bench/$1" "${@:2}" --quick --csv --jobs "$JOBS" --sim-threads "$THREADS")
  "${run[@]}" --trace-out="$T/$k.trace.csv" --metrics-csv="$T/$k.metrics.csv" \
    --report="$T/$k.report.txt" --topo-report="$T/$k.topo.txt" \
    > "$T/$k.stdout" 2> "$T/$k.err" || die "$src" "$T/$k.err"
  "${run[@]}" > "$T/$k.off.stdout" 2> "$T/$k.off.err" || die "$src" "$T/$k.off.err"
  same "$k" "$k.off" || fail "$src: stdout or events differ with observability off"
  printf '%s\tevents\t%s\n' "$src" "$(events "$T/$k.err")"
  for f in stdout trace.csv metrics.csv report.txt topo.txt topo.txt.matrix.csv; do
    if [ -e "$T/$k.$f" ]; then printf '%s\t%s\t%s\n' "$src" "$f" "$(digest "$T/$k.$f")"; fi
  done
}

{
  for src in bench/bench_*.cpp; do
    b=$(basename "$src" .cpp)
    [ "$b" = bench_sim_throughput ] || bench "$b"
  done
  for v in --scale-out --warm-start --cold-start; do bench bench_fig8_speedup "$v"; done
} > "$T/golden.tsv"
grep -q '^\[host\] point ' "$T/bench_fig8_speedup--scale-out.err" ||
  fail "bench_fig8_speedup --scale-out: no [host] point lines"
same bench_fig8_speedup--warm-start bench_fig8_speedup--cold-start ||
  fail "bench_fig8_speedup --warm-start: stdout or events differ from --cold-start"

for m in presets/campaigns/*.json; do
  c=$(basename "$m" .json)
  for pass in "" .cached; do
    "$BUILD_DIR/tools/ksrsim" campaign "$m" --jobs "$JOBS" --store "$T/store.$c" \
      --out "$T/$c$pass" 2> "$T/$c$pass.err" || die "campaign $c" "$T/$c$pass.err"
  done
  grep -q 'hit_rate_pct=100$' "$T/$c.cached.err" || fail "$c.json: cached pass not 100% hits"
  for f in jsonl csv; do
    cmp -s "$T/$c.$f" "$T/$c.cached.$f" || fail "$c.json: cached pass wrote a different .$f"
    printf '%s\t%s\t%s\n' "$c.json" "$f" "$(digest "$T/$c.$f")"
  done
done >> "$T/golden.tsv"
sum=$(grep -o '"events_dispatched":[0-9]*' "$T/fig8_quick.jsonl" | awk -F: '{s += $2} END {print s}')
[ "$sum" = "$(events "$T/bench_fig8_speedup.err")" ] ||
  fail "fig8_quick.json: jobs' events sum to $sum, not bench_fig8_speedup's"

if [ "$CHECK" = 1 ]; then
  mv "$T/golden.tsv" "$OUT"
  diff -u bench/golden.tsv "$OUT" || fail "outputs differ from bench/golden.tsv (-want +got)"
elif [ "$FAILED" = 0 ]; then
  mv "$T/golden.tsv" "$OUT"
fi
exit "$FAILED"
