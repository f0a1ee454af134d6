#!/usr/bin/env bash
# Host-side performance harness for the simulator itself.
#
#   scripts/bench_host.sh [--build-dir DIR] [--quick] [--out FILE]
#   scripts/bench_host.sh --check [--build-dir DIR]
#
# Runs the google-benchmark microbenches (bench_sim_throughput) plus the two
# event-heavy paper binaries (bench_table2_is, bench_fig4_barriers_ksr1) and
# merges everything into a single JSON report (default: BENCH_host.json at
# the repository root) via bench/report.py. Each paper binary prints a
#
#   [host] bench=<name> events_dispatched=<n> wall_ms=<ms>
#
# line on stderr (see bench/bench_common.hpp); events_dispatched is a
# bit-determinism fingerprint — host-side optimisation work must never
# change it.
#
# --check is a fast smoke mode for CI (the `perf-smoke` ctest label): it
# runs the quick variants, re-runs one binary to assert the fingerprint is
# reproducible, runs one paper binary with --jobs 1 and --jobs 4 to assert
# the parallel sweep runner's determinism contract (events_dispatched and
# the --csv stream must be byte-identical for any job count), and exits
# non-zero on any failure. It writes only to a temporary directory.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
QUICK=0
CHECK=0
OUT=BENCH_host.json

while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --quick)     QUICK=1; shift ;;
    --check)     CHECK=1; QUICK=1; shift ;;
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

if [ "$CHECK" = 1 ]; then
  MIN_TIME=0.05
  GBENCH_FILTER='--benchmark_filter=BM_(EngineEventDispatch|FiberSwitch|FiberHandoff|RingTransaction|CoherentReadHit)'
else
  MIN_TIME=1
  GBENCH_FILTER='--benchmark_filter=.'
fi

echo "== bench_sim_throughput =="
"$BUILD_DIR/bench/bench_sim_throughput" "$GBENCH_FILTER" \
  "--benchmark_min_time=$MIN_TIME" \
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
  # the full-size pinned fingerprints; --check pins the quick table2_is
  # variant (574025) below.
  fp_t2=$(fingerprint table2_is)
  fp_f4=$(fingerprint fig4)
  if [ "$fp_t2" != "16218825" ] || [ "$fp_f4" != "8844467" ]; then
    echo "bench_host.sh FAILED: pinned seed fingerprints moved" \
         "(table2_is=$fp_t2 want 16218825, fig4=$fp_f4 want 8844467)" >&2
    exit 1
  fi
fi

if [ "$CHECK" = 1 ]; then
  # Determinism smoke: a second run must reproduce the fingerprint exactly.
  run_paper bench_fig4_barriers_ksr1 fig4_rerun
  fp1=$(fingerprint fig4)
  fp2=$(fingerprint fig4_rerun)
  if [ -z "$fp1" ] || [ "$fp1" != "$fp2" ]; then
    echo "bench_host.sh --check FAILED: events_dispatched not reproducible" \
         "($fp1 vs $fp2)" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/fig4.csv" "$TMP/fig4_rerun.csv"; then
    echo "bench_host.sh --check FAILED: --csv output not reproducible" >&2
    exit 1
  fi
  # Parallel-runner determinism: sharding a sweep over 4 host threads must
  # change neither the event fingerprint nor a byte of the CSV output.
  run_paper bench_table2_is table2_is_j1 --jobs 1
  run_paper bench_table2_is table2_is_j4 --jobs 4
  fpj1=$(fingerprint table2_is_j1)
  fpj4=$(fingerprint table2_is_j4)
  if [ "$fpj1" != "574025" ]; then
    echo "bench_host.sh --check FAILED: pinned quick table2_is fingerprint" \
         "moved ($fpj1 want 574025)" >&2
    exit 1
  fi
  if [ -z "$fpj1" ] || [ "$fpj1" != "$fpj4" ]; then
    echo "bench_host.sh --check FAILED: events_dispatched differs between" \
         "--jobs 1 and --jobs 4 ($fpj1 vs $fpj4)" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/table2_is_j1.csv" "$TMP/table2_is_j4.csv"; then
    echo "bench_host.sh --check FAILED: --csv output differs between" \
         "--jobs 1 and --jobs 4" >&2
    exit 1
  fi
  # Single-simulation parallel engine determinism (docs/PARALLEL.md):
  # threading one simulation over 4 host threads must change neither the
  # event fingerprint nor a byte of the CSV output vs --sim-threads 1.
  run_paper bench_table2_is table2_is_st1 --jobs 1 --sim-threads 1
  run_paper bench_table2_is table2_is_st4 --jobs 1 --sim-threads 4
  fpst1=$(fingerprint table2_is_st1)
  fpst4=$(fingerprint table2_is_st4)
  if [ -z "$fpst1" ] || [ "$fpst1" != "$fpst4" ]; then
    echo "bench_host.sh --check FAILED: events_dispatched differs between" \
         "--sim-threads 1 and --sim-threads 4 ($fpst1 vs $fpst4)" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/table2_is_st1.csv" "$TMP/table2_is_st4.csv"; then
    echo "bench_host.sh --check FAILED: --csv output differs between" \
         "--sim-threads 1 and --sim-threads 4" >&2
    exit 1
  fi
  # Observability non-perturbation: tracing + metrics on must change neither
  # the event fingerprint nor a byte of the CSV stream, and the merged trace
  # must be a loadable Chrome trace-event document.
  run_paper bench_fig4_barriers_ksr1 fig4_traced \
    --trace "--trace-out=$TMP/fig4_trace.json" \
    "--metrics-csv=$TMP/fig4_metrics.csv"
  fpt=$(fingerprint fig4_traced)
  if [ -z "$fpt" ] || [ "$fp1" != "$fpt" ]; then
    echo "bench_host.sh --check FAILED: events_dispatched changes when" \
         "tracing is on ($fp1 vs $fpt)" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/fig4.csv" "$TMP/fig4_traced.csv"; then
    echo "bench_host.sh --check FAILED: --csv output changes when tracing" \
         "is on" >&2
    exit 1
  fi
  if ! python3 -c "
import json, sys
d = json.load(open('$TMP/fig4_trace.json'))
assert isinstance(d['traceEvents'], list) and d['traceEvents'], 'empty trace'
"; then
    echo "bench_host.sh --check FAILED: fig4 trace JSON is not loadable" >&2
    exit 1
  fi
  if [ ! -s "$TMP/fig4_metrics.csv" ]; then
    echo "bench_host.sh --check FAILED: fig4 metrics CSV is empty" >&2
    exit 1
  fi
  # Profile-report non-perturbation: --report drives the same tracer but
  # must change neither the event fingerprint nor a byte of the CSV stream,
  # and the report itself must be byte-identical for any --jobs count (the
  # sweep merges per-job sections in submission order).
  run_paper bench_table2_is table2_is_rep_j1 --jobs 1 \
    "--report=$TMP/report_j1.txt"
  run_paper bench_table2_is table2_is_rep_j4 --jobs 4 \
    "--report=$TMP/report_j4.txt"
  fpr=$(fingerprint table2_is_rep_j1)
  if [ -z "$fpr" ] || [ "$fpj1" != "$fpr" ]; then
    echo "bench_host.sh --check FAILED: events_dispatched changes when" \
         "--report is on ($fpj1 vs $fpr)" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/table2_is_j1.csv" "$TMP/table2_is_rep_j1.csv"; then
    echo "bench_host.sh --check FAILED: --csv output changes when --report" \
         "is on" >&2
    exit 1
  fi
  if [ ! -s "$TMP/report_j1.txt" ]; then
    echo "bench_host.sh --check FAILED: --report wrote no profile" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/report_j1.txt" "$TMP/report_j4.txt"; then
    echo "bench_host.sh --check FAILED: profile report differs between" \
         "--jobs 1 and --jobs 4" >&2
    exit 1
  fi
  if ! grep -q '^## sharing' "$TMP/report_j1.txt"; then
    echo "bench_host.sh --check FAILED: profile report has no sharing" \
         "section" >&2
    exit 1
  fi
  # Scale-out determinism: a 128-cell sharded-directory machine partitioned
  # into four domains must produce the same fingerprint and CSV bytes
  # whether the domains run on one host thread or four (docs/PARALLEL.md).
  run_paper bench_fig8_speedup scaleout_st1 --scale-out --jobs 1 --sim-threads 1
  run_paper bench_fig8_speedup scaleout_st4 --scale-out --jobs 1 --sim-threads 4
  fpso1=$(fingerprint scaleout_st1)
  fpso4=$(fingerprint scaleout_st4)
  if [ -z "$fpso1" ] || [ "$fpso1" != "$fpso4" ]; then
    echo "bench_host.sh --check FAILED: scale-out events_dispatched differs" \
         "between --sim-threads 1 and 4 ($fpso1 vs $fpso4)" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/scaleout_st1.csv" "$TMP/scaleout_st4.csv"; then
    echo "bench_host.sh --check FAILED: scale-out --csv output differs" \
         "between --sim-threads 1 and 4" >&2
    exit 1
  fi
  # Checkpoint round-trip (docs/CHECKPOINT.md): the warm-start fig8 sweep
  # (each no-prefetch IS point forks from a checkpoint captured at the
  # prefetch point's warm-up boundary) must print byte-identical results to
  # the cold-start sweep that re-simulates every warm-up, and its [host]
  # line must record the skipped warm-up wall time as warm_saved_ms=.
  run_paper bench_fig8_speedup fig8_cold --cold-start --jobs 1 --sim-threads 1
  run_paper bench_fig8_speedup fig8_warm --warm-start --jobs 1 --sim-threads 1
  fpc=$(fingerprint fig8_cold)
  fpw=$(fingerprint fig8_warm)
  if [ -z "$fpc" ] || [ "$fpc" != "$fpw" ]; then
    echo "bench_host.sh --check FAILED: warm-start events_dispatched differs" \
         "from cold-start ($fpw vs $fpc)" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/fig8_cold.csv" "$TMP/fig8_warm.csv"; then
    echo "bench_host.sh --check FAILED: warm-start --csv output differs" \
         "from cold-start (checkpoint restore is not bit-exact)" >&2
    exit 1
  fi
  if ! grep -q 'warm_saved_ms=' "$TMP/fig8_warm.host"; then
    echo "bench_host.sh --check FAILED: warm-start [host] line records no" \
         "warm_saved_ms field" >&2
    exit 1
  fi
  # Topology-report determinism (docs/OBSERVABILITY.md): --topo-report must
  # not perturb the fingerprint or the --csv stream, and the report bytes
  # must be identical across --jobs counts (every field is a simulated
  # integer, merged in submission order).
  run_paper bench_table2_is table2_is_topo_j1 --jobs 1 \
    "--topo-report=$TMP/topo_j1.txt"
  run_paper bench_table2_is table2_is_topo_j4 --jobs 4 \
    "--topo-report=$TMP/topo_j4.txt"
  fptopo=$(fingerprint table2_is_topo_j1)
  if [ -z "$fptopo" ] || [ "$fpj1" != "$fptopo" ]; then
    echo "bench_host.sh --check FAILED: events_dispatched changes when" \
         "--topo-report is on ($fpj1 vs $fptopo)" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/table2_is_j1.csv" "$TMP/table2_is_topo_j1.csv"; then
    echo "bench_host.sh --check FAILED: --csv output changes when" \
         "--topo-report is on" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/topo_j1.txt" "$TMP/topo_j4.txt"; then
    echo "bench_host.sh --check FAILED: topo report differs between" \
         "--jobs 1 and --jobs 4" >&2
    exit 1
  fi
  if ! grep -q '^## topology' "$TMP/topo_j1.txt"; then
    echo "bench_host.sh --check FAILED: topo report has no topology" \
         "section" >&2
    exit 1
  fi
  # ... and across --sim-threads on the multi-domain scale-out machines,
  # including the traffic-heatmap CSV and the boundary-channel section that
  # only a multi-domain run can produce.
  run_paper bench_fig8_speedup scaleout_topo_st1 --scale-out --jobs 1 \
    --sim-threads 1 "--topo-report=$TMP/topo_st1.txt"
  run_paper bench_fig8_speedup scaleout_topo_st4 --scale-out --jobs 1 \
    --sim-threads 4 "--topo-report=$TMP/topo_st4.txt"
  fpsot1=$(fingerprint scaleout_topo_st1)
  if [ -z "$fpsot1" ] || [ "$fpso1" != "$fpsot1" ]; then
    echo "bench_host.sh --check FAILED: scale-out events_dispatched changes" \
         "when --topo-report is on ($fpso1 vs $fpsot1)" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/topo_st1.txt" "$TMP/topo_st4.txt"; then
    echo "bench_host.sh --check FAILED: topo report differs between" \
         "--sim-threads 1 and --sim-threads 4" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/topo_st1.txt.matrix.csv" "$TMP/topo_st4.txt.matrix.csv"; then
    echo "bench_host.sh --check FAILED: traffic matrix CSV differs between" \
         "--sim-threads 1 and --sim-threads 4" >&2
    exit 1
  fi
  if ! grep -q '^## boundary channels' "$TMP/topo_st1.txt"; then
    echo "bench_host.sh --check FAILED: multi-domain topo report has no" \
         "boundary-channel section" >&2
    exit 1
  fi
  if ! grep -q '^\[host\] point ' "$TMP/scaleout_topo_st1.host"; then
    echo "bench_host.sh --check FAILED: scale-out run printed no [host]" \
         "point telemetry lines" >&2
    exit 1
  fi
  # Serving-layer equivalence (docs/SERVING.md): the fig8_quick campaign
  # manifest expands to the same six points the direct bench sweeps, so the
  # sum of its per-job events_dispatched must equal the direct [host]
  # fingerprint; a second pass over the same store must be 100% cache hits
  # with a byte-identical result database.
  CAMPAIGN_ARGS=()
  if [ -x "$BUILD_DIR/tools/ksrsim" ]; then
    run_paper bench_fig8_speedup fig8_direct
    fpd=$(fingerprint fig8_direct)
    "$BUILD_DIR/tools/ksrsim" campaign presets/campaigns/fig8_quick.json \
      --store "$TMP/campaign_store" --out "$TMP/fig8_cold_db" \
      2> "$TMP/campaign_cold.log"
    "$BUILD_DIR/tools/ksrsim" campaign presets/campaigns/fig8_quick.json \
      --store "$TMP/campaign_store" --out "$TMP/fig8_warm_db" \
      2> "$TMP/campaign_warm.log"
    fpcamp=$(python3 -c "
import json, sys
print(sum(json.loads(l)['result']['events_dispatched']
          for l in open('$TMP/fig8_cold_db.jsonl') if l.strip()))
")
    if [ -z "$fpd" ] || [ "$fpcamp" != "$fpd" ]; then
      echo "bench_host.sh --check FAILED: campaign events_dispatched sum" \
           "differs from the direct fig8 sweep ($fpcamp vs $fpd)" >&2
      exit 1
    fi
    if ! grep -q 'hit_rate_pct=100' "$TMP/campaign_warm.log"; then
      echo "bench_host.sh --check FAILED: second campaign pass was not 100%" \
           "cache hits" >&2
      cat "$TMP/campaign_warm.log" >&2
      exit 1
    fi
    if ! cmp -s "$TMP/fig8_cold_db.jsonl" "$TMP/fig8_warm_db.jsonl" ||
       ! cmp -s "$TMP/fig8_cold_db.csv" "$TMP/fig8_warm_db.csv"; then
      echo "bench_host.sh --check FAILED: campaign result database differs" \
           "between the cold and cached pass" >&2
      exit 1
    fi
    CAMPAIGN_ARGS=(--campaign "fig8_campaign=$TMP/fig8_cold_db.jsonl")
  else
    echo "bench_host.sh --check: skipping campaign stage (ksrsim not built)" >&2
  fi
  # Host-performance gate: the simulator's hot loops must not have slowed
  # past tolerance relative to the committed BENCH_host.json baseline.
  python3 scripts/perf_gate.py --gbench "$TMP/gbench.json"
  python3 bench/report.py --gbench "$TMP/gbench.json" \
    --host "$TMP/table2_is.host" --host "$TMP/fig4.host" \
    ${CAMPAIGN_ARGS[@]+"${CAMPAIGN_ARGS[@]}"} \
    --mode quick --out "$TMP/BENCH_host.json"
  echo "bench_host.sh --check OK (fingerprint $fp1 reproducible," \
       "jobs-1/jobs-4 fingerprint $fpj1 identical, sim-threads-1/4" \
       "fingerprint $fpst1 identical, traced fingerprint $fpt identical)"
  exit 0
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
