#!/usr/bin/env sh
# Validates the tracing layer end-to-end:
#
#   1. Runs a tiny fig3 sweep with --trace-out and checks the emitted
#      JSON against the "mcharge.trace.v1" schema, including presence and
#      non-zero counts of the load-bearing spans (planner phases, the
#      tour substrate's stages inside tsp::min_max_k_tours, executor,
#      simulator round loop, its problem build and its accounting tail);
#      one ablation_design round adds the dense blossom's solve span and
#      the stages inside tsp.construct (MST, odd-set matching, Euler).
#   2. Runs the BM_ObsOverhead micro-bench pair and asserts the
#      tracing-enabled run stays within a noise margin of the disabled
#      run (the layer's contract is < 1% overhead on instrumented
#      workloads; the CI gate allows 25% to absorb shared-runner noise).
#   3. Regression-diffs traced phase timings against the median rows of
#      the checked-in BENCH_micro.json: BM_ApproPlan/200 is re-run with
#      MCHARGE_TRACE_OUT set, so its appro.plan span times the exact
#      workload the baseline bench measured, and the per-call seconds
#      must agree with the baseline within loose bounds ([1/20x, 20x]).
#      This is a tripwire for spans measuring the wrong scope (e.g.
#      timing one phase but attributing the whole plan), not a perf gate.
#
# Every step needs python3 and the checked-in BENCH_micro.json; a host
# without either fails rather than passing the gates unchecked.
#
# Usage:
#   scripts/check_trace.sh
#   BUILD_DIR=other-build scripts/check_trace.sh
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

command -v python3 >/dev/null 2>&1 || {
  echo "FAIL: python3 is required" >&2; exit 1; }
[ -f BENCH_micro.json ] || {
  echo "FAIL: BENCH_micro.json is missing" >&2; exit 1; }

for bin in bench/fig3_vary_n bench/ablation_design bench/micro_algorithms; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "building $bin ..." >&2
    cmake -B "$BUILD_DIR" -S . >/dev/null
    cmake --build "$BUILD_DIR" -j --target "$(basename "$bin")" >/dev/null
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# ---- 1. schema validation on a real traced run ------------------------
"$BUILD_DIR/bench/fig3_vary_n" --nmin=200 --nmax=200 --instances=2 \
  --months=0.5 --trace-out="$TMP/trace.json" >/dev/null
[ -s "$TMP/trace.json" ] || { echo "FAIL: trace.json not written" >&2; exit 1; }
# One ablation_design round plans 1000 sensors at once: its Christofides
# odd sets run the dense blossom, and every stage of the tour substrate
# fires at full size. The short fig3 run is not sure to meet an odd set
# of four or more vertices, so the blossom span is required here only.
"$BUILD_DIR/bench/ablation_design" --rounds=1 \
  --trace-out="$TMP/trace_matching.json" >/dev/null
[ -s "$TMP/trace_matching.json" ] || {
  echo "FAIL: trace_matching.json not written" >&2; exit 1; }

python3 - "$TMP/trace.json" "$TMP/trace_matching.json" <<'EOF'
import json, sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == "mcharge.trace.v1", doc.get("schema")
    metrics = doc["metrics"]
    assert isinstance(metrics, list) and metrics, "empty metrics"
    by_name = {}
    for m in metrics:
        assert set(m) >= {"name", "kind", "count"}, m
        assert m["kind"] in ("span", "counter"), m
        if m["kind"] == "span":
            assert "total_s" in m and m["total_s"] >= 0.0, m
        by_name[m["name"]] = m
    names = sorted(by_name)
    assert names == [m["name"] for m in metrics], "metrics not sorted by name"
    return by_name


def require(by_name, names):
    for required in names:
        assert required in by_name, f"missing span: {required}"
        assert by_name[required]["count"] > 0, f"zero count: {required}"


sim = load(sys.argv[1])
require(sim, ("appro.plan", "appro.k_tours", "appro.insertion",
              "exec.multinode", "sim.round", "sim.select_scan",
              "sim.problem", "sim.account", "tsp.construct",
              "tsp.improve_tour", "tsp.split", "tsp.segment_improve"))
# The sparse engine's blossom.* spans fire only when auto-dispatch picks
# it, which depends on odd-set size, so only the dense span is required.
require(load(sys.argv[2]), ("appro.k_tours", "blossom.dense_solve",
                            "tsp.mst", "tsp.odd_match", "tsp.euler"))
print("trace schema: OK (%d metrics)" % len(sim))
EOF

# ---- 2. enabled-vs-disabled overhead ---------------------------------
"$BUILD_DIR/bench/micro_algorithms" \
  --benchmark_filter='BM_ObsOverhead' \
  --benchmark_format=json \
  --benchmark_out="$TMP/overhead.json" \
  --benchmark_out_format=json >/dev/null

python3 - "$TMP/overhead.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
times = {b["name"]: b["real_time"] for b in doc["benchmarks"]}
off, on = times["BM_ObsOverhead/0"], times["BM_ObsOverhead/1"]
ratio = on / off
print("obs overhead: off=%.3fms on=%.3fms ratio=%.4f" %
      (off, on, ratio))
assert ratio < 1.25, f"tracing overhead out of bounds: {ratio:.4f}"
EOF

# ---- 3. phase-timing regression diff vs BENCH_micro.json -------------
MCHARGE_TRACE_OUT="$TMP/trace_micro.json" \
  "$BUILD_DIR/bench/micro_algorithms" \
  --benchmark_filter='BM_ApproPlan/200$' \
  --benchmark_format=json \
  --benchmark_out="$TMP/approplan.json" \
  --benchmark_out_format=json >/dev/null
python3 - "$TMP/trace_micro.json" BENCH_micro.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
with open(sys.argv[2]) as f:
    bench = json.load(f)
plan = next(m for m in trace["metrics"] if m["name"] == "appro.plan")
per_call_s = plan["total_s"] / plan["count"]
ref = [b for b in bench["benchmarks"] if b["name"] == "BM_ApproPlan/200_median"]
if not ref:
    print("phase regression: SKIPPED (no BM_ApproPlan/200 median in baseline)")
    sys.exit(0)
unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[ref[0]["time_unit"]]
ref_s = ref[0]["real_time"] * unit
ratio = per_call_s / ref_s
print("appro.plan: traced=%.4fms baseline=%.4fms ratio=%.3f" %
      (per_call_s * 1e3, ref_s * 1e3, ratio))
assert 1.0 / 20.0 < ratio < 20.0, \
    f"appro.plan span drifted {ratio:.3f}x from BENCH_micro baseline"
EOF

# ---- 4. sparse blossom warm-start regression gate --------------------
# BM_Blossom/1024/1 regressed once before (warm re-solves whose exit
# duals priced dirty forced an extra full solve round); this gate trips
# if the sparse engine drifts more than 1.35x from the checked-in
# baseline — roughly the 70 ms budget at 1024 — while staying loose
# enough to absorb shared-runner noise.
"$BUILD_DIR/bench/micro_algorithms" \
  --benchmark_filter='BM_Blossom/1024/1$' \
  --benchmark_format=json \
  --benchmark_out="$TMP/blossom1024.json" \
  --benchmark_out_format=json >/dev/null
python3 - "$TMP/blossom1024.json" BENCH_micro.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    run = json.load(f)
with open(sys.argv[2]) as f:
    bench = json.load(f)
cur = next(b for b in run["benchmarks"] if b["name"] == "BM_Blossom/1024/1")
ref = [b for b in bench["benchmarks"] if b["name"] == "BM_Blossom/1024/1_median"]
if not ref:
    print("blossom gate: SKIPPED (no BM_Blossom/1024/1 median in baseline)")
    sys.exit(0)
unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
cur_s = cur["real_time"] * unit[cur["time_unit"]]
ref_s = ref[0]["real_time"] * unit[ref[0]["time_unit"]]
ratio = cur_s / ref_s
print("BM_Blossom/1024/1: run=%.1fms baseline=%.1fms ratio=%.3f" %
      (cur_s * 1e3, ref_s * 1e3, ratio))
assert ratio < 1.35, \
    f"sparse blossom at 1024 drifted {ratio:.3f}x from BENCH_micro baseline"
EOF

echo "trace checks: all passed"
