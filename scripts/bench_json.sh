#!/usr/bin/env sh
# Runs the google-benchmark micro benches with JSON output to start (and
# extend) the repo's perf trajectory. The resulting BENCH_micro.json is
# checked in so successive PRs can diff hot-path timings; each bench is
# repeated five times and summarised by its median and cv.
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
      FILTER="--benchmark_filter=BM_(TwoOpt|TwoOptCached|OrOpt|OrOptCached|DistanceCacheBuild|SimdDistanceMatrix|ParallelSweep|ApproPlan|MinMaxKTours|Simulate)" ;;
    --filter=*)
      FILTER="--benchmark_filter=${arg#--filter=}" ;;
    *)
      echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Host facts for the JSON context (google-benchmark adds num_cpus, caches
# and its own library build type). The SIMD backend mirrors util/simd.h's
# dispatch: scalar when built with MCHARGE_NO_SIMD or capped by
# MCHARGE_SIMD=scalar, else avx2 when the CPU has it.
CACHE=build/CMakeCache.txt
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$CACHE")
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$CACHE")
compiler=$("$cxx" --version | head -n 1 | tr ',' ' ')
if grep -q '^MCHARGE_NO_SIMD:BOOL=ON' "$CACHE" ||
   [ "${MCHARGE_SIMD:-}" = scalar ]; then
  simd=scalar
elif grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  simd=avx2
else
  simd=scalar
fi

# Five repetitions per bench: the file keeps every repetition plus the
# mean/median/stddev/cv aggregate rows (name suffix _median etc.); gates
# such as scripts/check_trace.sh compare against the _median rows.
"$BIN" $FILTER \
  --benchmark_repetitions=5 \
  --benchmark_display_aggregates_only=true \
  --benchmark_context="nproc=$(nproc),simd_backend=$simd,compiler=$compiler,cmake_build_type=${build_type:-unset}" \
  --benchmark_format=json \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json >/dev/null
echo "wrote $OUT" >&2
