#!/usr/bin/env bash
# Full reproduction: build, run the entire test suite, then regenerate every
# figure/table. Outputs land in test_output.txt and bench_output.txt at the
# repository root.
#
# Usage: scripts/reproduce.sh [-j N] [--shards N]
#   -j N        worker threads per sweeping bench binary (default: all cores
#               divided by --shards; -j1 is the exact sequential run — figure
#               output is byte-identical at any -j)
#   --shards N  intra-scenario PDES shards per simulation (default 1; figure
#               output is byte-identical at any shard count)
#
# Figure binaries exit non-zero when a PAPER-vs-MEASURED row goes [off] or a
# qualitative claim prints [VIOLATED]; with pipefail below, a shape
# regression fails this script.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=""  # empty: each binary picks its own worker count
SHARDS=1
while [ $# -gt 0 ]; do
  case "$1" in
    -j) JOBS="$2"; shift 2 ;;
    -j*) JOBS="${1#-j}"; shift ;;
    --shards) SHARDS="$2"; shift 2 ;;
    --shards=*) SHARDS="${1#--shards=}"; shift ;;
    *) echo "usage: $0 [-j N] [--shards N]" >&2; exit 2 ;;
  esac
done

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    echo "===== $(basename "$b") =====" | tee -a bench_output.txt
    case "$(basename "$b")" in
      micro_engine)  # google-benchmark binary: no -j flag
        "$b" 2>&1 | tee -a bench_output.txt ;;
      pdes_scale|collective_scale)  # one scenario per run: no -j flag
        "$b" --shards "$SHARDS" 2>&1 | tee -a bench_output.txt ;;
      *)
        "$b" ${JOBS:+-j "$JOBS"} --shards "$SHARDS" 2>&1 | tee -a bench_output.txt ;;
    esac
  fi
done

echo
echo "Done. See test_output.txt and bench_output.txt."
