#!/usr/bin/env bash
# Builds clicbench (benchmark/ -> build-bench/, Release) and runs it, one
# process per workload. Run from anywhere inside a source checkout:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last stdout line is its JSON result.
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#       every workload in turn, printing `workload metric value unit` lines.
#       --trace 1 also writes build-bench/trace-<workload>.json.
#   benchmark/run.sh --repeat N [--workload W] [--seed N] ...
#       N runs per workload on seeds seed..seed+N-1; prints the median and
#       quartiles of each metric and flags any whose spread exceeds its
#       bound in BENCHMARK.json.
#   benchmark/run.sh --pair A B [--repeat N] [--workload W] ...
#       N pairs (default 10) of runs of the clicbench binaries in build
#       trees A and B, alternating which runs first; prints each side's
#       median and quartiles and how many pairs B won.
#
# Exits non-zero if the build fails or any run fails a correctness gate.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/build-bench"

selected=()
seed=1
seconds=15
trace=0
smoke=0
repeat=0
pair_a=""
pair_b=""

usage() {  # exit-code
  sed -n '2,19p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit "$1"
}

while (($#)); do
  case "$1" in
    --workload) selected+=("${2:?}"); shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --trace) trace="${2:?}"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --repeat) repeat="${2:?}"; shift 2 ;;
    --pair) pair_a="${2:?}"; pair_b="${3:?}"; shift 3 ;;
    -h|--help) usage 0 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; usage 2 ;;
  esac
done
if ((${#selected[@]} == 0)); then
  selected=(pingpong-sweep rpc-poisson rpc-incast fabric-storm)
fi

args_for() {  # workload seed -> $args
  args=(--workload "$1" --seed "$2" --seconds "$seconds" --trace "$trace")
  if ((smoke)); then args+=(--smoke); fi
  if ((trace)); then args+=(--trace-out "$build/trace-$1.json"); fi
}

if [[ -n "$pair_a" ]]; then
  for tree in "$pair_a" "$pair_b"; do
    if [[ ! -x "$tree/clicbench" ]]; then
      echo "run.sh: no clicbench binary in $tree" >&2
      exit 2
    fi
  done
  if ((repeat == 0)); then repeat=10; fi
else
  threads=$(nproc)
  if ((threads > 4)); then threads=4; fi
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$build" -j "$threads" >&2
  if ((repeat == 0 && ${#selected[@]} == 1)); then
    args_for "${selected[0]}" "$seed"
    exec "$build/clicbench" "${args[@]}"
  fi
fi

# Repeated and paired runs collect one line per run: workload, side, seed
# and the run's JSON result.
mkdir -p "$build"
results="$build/results.tsv"
: >"$results"
status=0

run_one() {  # binary workload seed side
  local out
  args_for "$2" "$3"
  if out=$("$1" "${args[@]}"); then
    printf '%s\t%s\t%s\t%s\n' "$2" "$4" "$3" "$(tail -n 1 <<<"$out")" \
      >>"$results"
  else
    printf '%s\n' "$out"
    echo "run.sh: $2 seed $3 ($1) failed" >&2
    status=1
  fi
}

if [[ -n "$pair_a" ]]; then
  for w in "${selected[@]}"; do
    for ((i = 0; i < repeat; i++)); do
      if ((i % 2 == 0)); then
        run_one "$pair_a/clicbench" "$w" $((seed + i)) A
        run_one "$pair_b/clicbench" "$w" $((seed + i)) B
      else
        run_one "$pair_b/clicbench" "$w" $((seed + i)) B
        run_one "$pair_a/clicbench" "$w" $((seed + i)) A
      fi
    done
  done
elif ((repeat > 0)); then
  for w in "${selected[@]}"; do
    for ((i = 0; i < repeat; i++)); do
      run_one "$build/clicbench" "$w" $((seed + i)) A
    done
  done
else
  for w in "${selected[@]}"; do
    args_for "$w" "$seed"
    if out=$("$build/clicbench" "${args[@]}"); then
      sed '$d' <<<"$out"
    else
      printf '%s\n' "$out"
      echo "run.sh: $w failed a correctness gate" >&2
      status=1
    fi
  done
  exit "$status"
fi

python3 "$root/benchmark/summarize.py" "$root/BENCHMARK.json" <"$results" ||
  status=1
exit "$status"
