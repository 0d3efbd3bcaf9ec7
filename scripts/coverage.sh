#!/usr/bin/env bash
# Line coverage of src/ over everything the project ships: which src/ lines
# does no bench binary, example or clicbench workload ever run? Deletion
# audits start from its list. It takes several minutes, so CI does not run
# it.
#
# Usage: scripts/coverage.sh
#
# Builds build-cov/ (the repository) and build-cov-bench/ (benchmark/) in
# Debug with -O1 --coverage -fno-inline, then runs the 23 bench and example
# binaries (the ten figure binaries with -j 2 and with -j 1 --shards 2,
# traffic_tail and chaos_soak with and without --adaptive, pdes_scale on
# the star and on each multi-tier topology at 1 and 4 shards,
# collective_scale at 1 and 4 shards, the other examples without
# arguments, micro_engine briefly) and clicbench's four workloads with
# --seed 1 --seconds 0 --smoke: the shipped modes that scripts/same_output.sh
# and tests/CMakeLists.txt run. Prints `unrun N of M` over the instrumented
# src/ lines, taking each line's highest count over all runs, then each
# src/ file's unrun line numbers.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

threads=$(nproc)
if ((threads > 4)); then threads=4; fi
flags=(-DCMAKE_BUILD_TYPE=Debug "-DCMAKE_CXX_FLAGS=-O1 --coverage -fno-inline")
cmake -S . -B build-cov "${flags[@]}" -DCLICSIM_WERROR=OFF >&2
cmake --build build-cov -j "$threads" >&2
cmake -S benchmark -B build-cov-bench "${flags[@]}" >&2
cmake --build build-cov-bench -j "$threads" >&2
find build-cov build-cov-bench -name '*.gcda' -delete

run() {
  echo "coverage.sh: $*" >&2
  "$@" >/dev/null 2>&1 || { echo "coverage.sh: $* failed" >&2; exit 1; }
}
for src in bench/*.cpp; do
  name=$(basename "$src" .cpp)
  case "$name" in
    traffic_tail)
      run "build-cov/bench/$name"
      run "build-cov/bench/$name" --adaptive
      ;;
    pdes_scale)
      run "build-cov/bench/$name"
      for topology in fat-tree leaf-spine ring; do
        for shards in 1 4; do
          run "build-cov/bench/$name" --topology "$topology" --nodes 256 \
            --shards "$shards"
        done
      done
      ;;
    collective_scale)
      run "build-cov/bench/$name" --shards 1
      run "build-cov/bench/$name" --shards 4
      ;;
    micro_engine) run "build-cov/bench/$name" --benchmark_min_time=0.01 ;;
    *)
      run "build-cov/bench/$name" -j 2
      run "build-cov/bench/$name" -j 1 --shards 2
      ;;
  esac
done
for src in examples/*.cpp; do
  run "build-cov/examples/$(basename "$src" .cpp)"
done
run build-cov/examples/chaos_soak --adaptive
for w in pingpong-sweep rpc-poisson rpc-incast fabric-storm; do
  run build-cov-bench/clicbench --workload "$w" --seed 1 --seconds 0 --smoke
done

mapfile -d '' gcdas < <(find build-cov build-cov-bench -name '*.gcda' -print0)
python3 - "$root" "${gcdas[@]}" <<'EOF'
import json, os, subprocess, sys

root = sys.argv[1]
best = {}  # (src/ path, line) -> highest count
for gcda in sys.argv[2:]:
    out = subprocess.run(["gcov", "-j", "-t", os.path.abspath(gcda)],
                         cwd=os.path.dirname(gcda), capture_output=True,
                         text=True, check=True).stdout
    for f in json.loads(out)["files"]:
        path = os.path.relpath(os.path.join(root, f["file"]), root)
        if not path.startswith("src/"):
            continue
        for line in f["lines"]:
            key = (path, line["line_number"])
            best[key] = max(best.get(key, 0), line["count"])

unrun = sorted(k for k, count in best.items() if count == 0)
print(f"unrun {len(unrun)} of {len(best)}")
by_file = {}
for path, line in unrun:
    by_file.setdefault(path, []).append(line)
for path, lines in sorted(by_file.items()):
    spans, start = [], lines[0]
    for prev, cur in zip(lines, lines[1:] + [None]):
        if cur != prev + 1:
            spans.append(str(start) if start == prev else f"{start}-{prev}")
            start = cur
    print(f"{path} ({len(lines)}): {' '.join(spans)}")
EOF
