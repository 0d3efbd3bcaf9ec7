#!/usr/bin/env bash
# Byte-identical output between two builds: the check for a change that
# must not move any simulated result (a refactor, a deletion). It runs the
# 36 bench and example invocations below in both build trees and compares
# their stdout; stderr is ignored, as in tests/invariance.cmake
# (pdes_scale, collective_scale and traffic_tail print wall-clock time
# there). It needs the other commit's build tree, so CI does not run it.
#
# Usage: scripts/same_output.sh BASE CHANGE [BASE_BENCH CHANGE_BENCH]
#
# BASE and CHANGE are build trees of the repository (cmake -S . -B DIR),
# typically the parent commit's and the change's, both Release. Prints one
# line per run: `same`, `DIFF` (stdout differs) or `FAIL` (a binary exited
# non-zero), then the run. Given two clicbench build trees as well
# (cmake -S benchmark -B DIR), it also compares
# `clicbench --trace 1 --smoke --seconds 0 --seed 1` on every workload with
# the host-timing metrics removed (apps.cell_*, apps.busy_share,
# apps.bed_build_s, sim.run_s, sim.events_per_s, trace_overhead). Exits
# non-zero on any DIFF or FAIL.
set -uo pipefail

if (($# != 2 && $# != 4)); then
  sed -n '9,19p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
base=$1
change=$2
base_bench=${3:-}
change_bench=${4:-}

runs=()
for fig in ablation_bonding ablation_fragmentation ablation_interrupts \
           ablation_paths ablation_window fig4_mtu_copy fig5_clic_vs_tcp \
           fig6_mpi_pvm fig7_pipeline tab_latency; do
  runs+=("bench/$fig -j 4" "bench/$fig -j 1 --shards 2")
done
runs+=(
  "bench/traffic_tail"
  "bench/traffic_tail --adaptive"
  "bench/pdes_scale"
  "bench/pdes_scale --topology fat-tree --nodes 1024 --shards 4"
  "bench/collective_scale --shards 1"
  "bench/collective_scale --shards 4"
  "examples/chaos_soak"
  "examples/chaos_soak --adaptive"
)
for example in bonding_remote_write broadcast_tree halo_exchange heat_solver \
               lossy_network packet_trace quickstart task_farm; do
  runs+=("examples/$example")
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bad=0

# compare LABEL FILTER TREE_A TREE_B BINARY ARGS...: runs BINARY ARGS in
# both trees, pipes each stdout through FILTER and prints the verdict.
compare() {
  local label=$1 filter=$2 tree_a=$3 tree_b=$4 rel=$5
  shift 5
  local status_a=0 status_b=0
  "$tree_a/$rel" "$@" 2>/dev/null | $filter >"$tmp/a" || status_a=$?
  "$tree_b/$rel" "$@" 2>/dev/null | $filter >"$tmp/b" || status_b=$?
  if ((status_a != 0 || status_b != 0)); then
    echo "FAIL  $label (exit $status_a / $status_b)"
    bad=1
  elif cmp -s "$tmp/a" "$tmp/b"; then
    echo "same  $label"
  else
    echo "DIFF  $label"
    bad=1
  fi
}

for run in "${runs[@]}"; do
  read -r -a words <<<"$run"
  compare "$run" cat "$base" "$change" "${words[@]}"
done

# clicbench's stdout without the metrics that time the host.
strip_timing() {
  python3 -c '
import json, re, sys
timing = re.compile(r"apps\.cell_|apps\.busy_share$|apps\.bed_build_s$"
                    r"|sim\.run_s$|sim\.events_per_s$|trace_overhead$")
for line in sys.stdin:
    if line.startswith("{"):
        result = json.loads(line)
        result["metrics"] = {k: v for k, v in result["metrics"].items()
                             if not timing.match(k)}
        print(json.dumps(result, sort_keys=True))
    elif len(line.split()) < 2 or not timing.match(line.split()[1]):
        print(line, end="")
'
}

if [[ -n "$base_bench" ]]; then
  for workload in pingpong-sweep rpc-poisson rpc-incast fabric-storm; do
    args=(--workload "$workload" --trace 1 --smoke --seconds 0 --seed 1)
    compare "clicbench ${args[*]}" strip_timing "$base_bench" "$change_bench" \
      clicbench "${args[@]}"
  done
fi
exit "$bad"
