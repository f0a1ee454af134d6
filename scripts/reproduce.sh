#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, and regenerate every
# paper table/figure, capturing outputs at the repository root.
#
#   scripts/reproduce.sh [--quick]
#
# --quick is forwarded to every bench binary (see README); it is the only
# size flag they all share.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  "" | --quick) FLAG="${1:-}" ;;
  *) echo "usage: scripts/reproduce.sh [--quick]" >&2; exit 2 ;;
esac

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "===== $b $FLAG =====" | tee -a bench_output.txt
  "$b" $FLAG 2>&1 | tee -a bench_output.txt
done

echo "Done: test_output.txt, bench_output.txt"
