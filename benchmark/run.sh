#!/usr/bin/env bash
# Builds the benchmark (Release, into build-bench/ at the repository root)
# and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--out DIR]
#
# Without --workload every workload runs, each in its own process so that
# peak_rss_mb is per workload. Defaults: --seed 1, --trace 0, --seconds 25,
# --out build-bench/results. The last line of output is the JSON result of
# the (last) workload; see benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

workloads=()
args=(--seed 1 --seconds 25 --trace 0 --out "$build/results")
while [ $# -gt 0 ]; do
  case "$1" in
    --workload)
      [ $# -ge 2 ] || { echo "run.sh: --workload needs a value" >&2; exit 2; }
      workloads+=("$2")
      shift 2
      ;;
    --trace)
      if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        args+=(--trace "$2")
        shift 2
      else
        args+=(--trace 1)
        shift
      fi
      ;;
    --seed | --seconds | --out)
      [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      args+=("$1" "$2")
      shift 2
      ;;
    *)
      echo "run.sh: unknown argument $1" >&2
      exit 2
      ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(train_aki32 train_mimic128 serve_ward serve_explain)
fi

jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -le 4 ] || jobs=4
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target tracer_bench -j "$jobs" >&2

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

status=0
for workload in "${workloads[@]}"; do
  "$build/tracer_bench" --workload "$workload" --commit "$commit" \
    "${args[@]}" || status=$?
done
exit "$status"
