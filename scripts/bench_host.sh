#!/usr/bin/env bash
# Host-side performance harness for the simulator itself.
#
#   scripts/bench_host.sh [--build-dir DIR] [--quick] [--out FILE]
#
# Runs the google-benchmark microbenches (bench_sim_throughput) plus the two
# event-heavy paper binaries (bench_table2_is, bench_fig4_barriers_ksr1) and
# merges everything into a single JSON report (default: BENCH_host.json at
# the repository root) via bench/report.py. Each paper binary prints a
#
#   [host] bench=<name> events_dispatched=<n> wall_ms=<ms>
#
# line on stderr (see include/ksr/study/sweep.hpp); events_dispatched is a
# bit-determinism fingerprint — host-side optimisation work must never
# change it, and a full-size run checks the two pinned ones. The quick
# outputs of every paper bench are pinned by the golden_digests ctest
# (scripts/golden.sh, bench/golden.tsv); the microbench regression gate is
# scripts/perf_gate.py.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
QUICK=0
OUT=BENCH_host.json

while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --quick)     QUICK=1; shift ;;
    --out)       OUT="$2"; shift 2 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

for bin in bench_sim_throughput bench_table2_is bench_fig4_barriers_ksr1 \
           bench_fig8_speedup; do
  if [ ! -x "$BUILD_DIR/bench/$bin" ]; then
    echo "bench_host.sh: $BUILD_DIR/bench/$bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== bench_sim_throughput =="
"$BUILD_DIR/bench/bench_sim_throughput" --benchmark_min_time=1 \
  --benchmark_format=json > "$TMP/gbench.json"

PAPER_FLAG=""
[ "$QUICK" = 1 ] && PAPER_FLAG="--quick"

run_paper() {  # $1 = binary name, $2 = output tag, $3.. = extra flags
  local bin="$1" tag="$2"
  shift 2
  echo "== $bin $PAPER_FLAG $* =="
  "$BUILD_DIR/bench/$bin" $PAPER_FLAG "$@" --csv \
    > "$TMP/$tag.csv" 2> "$TMP/$tag.host"
  grep '^\[host\]' "$TMP/$tag.host"
}

fingerprint() {  # $1 = output tag
  sed -n 's/.*events_dispatched=\([0-9]*\).*/\1/p' "$TMP/$1.host"
}

run_paper bench_table2_is table2_is
run_paper bench_fig4_barriers_ksr1 fig4

if [ "$QUICK" = 0 ]; then
  # Seed compatibility: the sharded directory in single-domain mode must
  # reproduce the pre-shard protocol bit for bit (DESIGN.md §7). These are
  # the full-size pinned fingerprints; bench/golden.tsv pins the quick ones.
  fp_t2=$(fingerprint table2_is)
  fp_f4=$(fingerprint fig4)
  if [ "$fp_t2" != "16218825" ] || [ "$fp_f4" != "8844467" ]; then
    echo "bench_host.sh FAILED: pinned seed fingerprints moved" \
         "(table2_is=$fp_t2 want 16218825, fig4=$fp_f4 want 8844467)" >&2
    exit 1
  fi
fi

# Serial baseline of the heaviest binary, so BENCH_host.json records the
# parallel speedup (table2_is wall_ms vs table2_is_jobs1 wall_ms) per PR,
# and a --sim-threads 4 run so the single-simulation parallel engine's
# wall time is tracked against the same serial baseline (docs/PARALLEL.md).
run_paper bench_table2_is table2_is_jobs1 --jobs 1
run_paper bench_table2_is table2_is_simthreads4 --jobs 1 --sim-threads 4

# Ring-of-rings scale-out (sharded coherence directory): coherent CG + IS at
# 128/512/1088 cells, four domains, at --sim-threads 1 and 4 so
# BENCH_host.json tracks the multi-domain engine's wall-clock trajectory on
# the same serial baseline.
run_paper bench_fig8_speedup fig8_scaleout_st1 --scale-out --jobs 1 --sim-threads 1
run_paper bench_fig8_speedup fig8_scaleout_st4 --scale-out --jobs 1 --sim-threads 4

# Warm-start fig8 (docs/CHECKPOINT.md): the IS points fork from warm-up
# checkpoints; BENCH_host.json records the skipped wall time (warm_saved_ms).
run_paper bench_fig8_speedup fig8_warmstart --warm-start --jobs 1 --sim-threads 1

python3 bench/report.py --gbench "$TMP/gbench.json" \
  --host "$TMP/table2_is.host" --host "$TMP/fig4.host" \
  --host "table2_is_jobs1=$TMP/table2_is_jobs1.host" \
  --host "table2_is_simthreads4=$TMP/table2_is_simthreads4.host" \
  --host "fig8_scaleout_st1=$TMP/fig8_scaleout_st1.host" \
  --host "fig8_scaleout_st4=$TMP/fig8_scaleout_st4.host" \
  --host "fig8_warmstart=$TMP/fig8_warmstart.host" \
  --mode "$([ "$QUICK" = 1 ] && echo quick || echo full)" \
  --out "$OUT"
echo "wrote $OUT"
