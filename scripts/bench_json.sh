#!/usr/bin/env sh
# Runs the google-benchmark micro benches with JSON output to start (and
# extend) the repo's perf trajectory. The resulting BENCH_micro.json is
# checked in so successive PRs can diff hot-path timings.
#
# Usage:
#   scripts/bench_json.sh                 # full suite -> BENCH_micro.json
#   scripts/bench_json.sh --quick        # hot-path subset (fast)
#   scripts/bench_json.sh --filter=REGEX # custom --benchmark_filter
#   OUT=path.json scripts/bench_json.sh  # alternate output file
set -eu

cd "$(dirname "$0")/.."
OUT="${OUT:-BENCH_micro.json}"
BIN=build/bench/micro_algorithms

if [ ! -x "$BIN" ]; then
  echo "building $BIN ..." >&2
  cmake -B build -S . >/dev/null
  cmake --build build -j --target micro_algorithms >/dev/null
fi

FILTER=""
for arg in "$@"; do
  case "$arg" in
    --quick)
      # The distance-cache, simd-kernel, parallel-sweep, planner-hot-path
      # and simulator-loop trajectory benches.
      FILTER="--benchmark_filter=BM_(TwoOpt|TwoOptCached|OrOpt|OrOptCached|DistanceCacheBuild|SimdDistanceMatrix|SimdArgminScan|ParallelSweep|ApproPlan|MinMaxKTours|Simulate)" ;;
    --filter=*)
      FILTER="--benchmark_filter=${arg#--filter=}" ;;
    *)
      echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# benchmark_repetitions=1 keeps the file append-diffable run to run; raise
# it locally when chasing noise.
"$BIN" $FILTER \
  --benchmark_format=json \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json >/dev/null
echo "wrote $OUT" >&2
