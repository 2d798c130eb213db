// Portable SIMD kernels for the hot loops that measurably pay for a
// vector backend: the SoA distance row (which fills the distance cache),
// Prim's fused relax-and-pick step, the 2-opt / Or-opt first-improvement
// gain scans, the simulator's two drain scans, and the blossom core's
// three int64 dual-adjustment loops. A kernel stays on the dispatch
// table only while a benchmark workload measurably slows with its scalar
// twin; the loops that did not pay (the split lower-bound max and the
// sparse engine's pricing prefilter) live as plain scalar loops at their
// one caller each (DESIGN.md, EXPERIMENTS.md).
//
// Bitwise-identity contract
// -------------------------
// Every kernel is REQUIRED to produce results bitwise identical to the
// scalar reference path (geom::distance and the hand-written loops it
// replaced). That holds because each kernel performs exactly the same
// per-element IEEE-754 double operations as the scalar code — per-element
// dx*dx + dy*dy, one correctly-rounded sqrt, one divide by speed — only
// on 4 lanes at a time. No FMA contraction (the vector TU compiles with
// -ffp-contract=off), no reassociation across elements, the first-hit
// scans return the lowest hit index exactly like a sequential scan, and
// the Prim pick breaks weight ties by vertex id, never by lane or slot.
// Tests in tests/simd_test.cpp enforce lane-for-lane equality
// against the scalar backend; the byte-compare regressions enforce it
// end to end.
//
// Dispatch
// --------
// Backends: scalar (always) and AVX2 (4 x double) on x86-64
// GNU-compatible compilers. AVX2 is chosen at runtime when the CPU has it;
// MCHARGE_SIMD=scalar in the environment overrides downward, and building
// with -DMCHARGE_NO_SIMD=ON compiles the scalar backend only.
// set_backend() lets tests pin a backend explicitly. There is no AVX-512
// backend on purpose: measured, 8 lanes never beat 4 here (DESIGN.md).
#pragma once

#include <cstddef>
#include <cstdint>

namespace mcharge::simd {

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

enum class Backend { kScalar = 0, kAvx2 = 1 };

/// Best backend supported by this build + CPU (respects MCHARGE_SIMD).
Backend best_backend();
/// Backend the kernels currently dispatch to.
Backend active_backend();
/// Requests a backend; clamped to best_backend() if unsupported. Returns
/// the backend actually active afterwards. Not thread-safe; intended for
/// tests and single-threaded setup.
Backend set_backend(Backend backend);
const char* backend_name(Backend backend);

/// out[i] = sqrt((px - xs[i])^2 + (py - ys[i])^2) for i in [0, n).
void distance_row(const double* xs, const double* ys, std::size_t n,
                  double px, double py, double* out);

/// One fused Prim step over the live slots [0, n) of graph::euclidean_mst.
/// Per slot r, w = sqrt((px - xs[r])^2 + (py - ys[r])^2) with exactly
/// distance_row's operation sequence; a strictly smaller w replaces
/// best[r] and sets parent[r] = added. Returns the slot of smallest
/// best[r] after the relax, ties broken to the lowest ids[r] (so the
/// caller may reorder slots freely), or kNpos if no best[r] is finite.
std::size_t prim_relax_pick(const double* xs, const double* ys, double* best,
                            std::uint32_t* parent, const std::uint32_t* ids,
                            std::size_t n, double px, double py,
                            std::uint32_t added);

/// First-improvement scan of the 2-opt move set for a fixed left edge.
///
/// Positions are given as SoA arrays px/py over tour positions, with the
/// depot appended as a sentinel at the last index; the scan reads
/// px[j] and px[j + 1] for j in [j_begin, j_end), so px/py must be valid
/// up to index j_end inclusive. tc[j] is the precomputed travel time of
/// the (j, j+1) leg, i.e. exactly the bits of
/// dist(P[j], P[j+1]) / speed — hoisting it out of the scan removes a
/// sqrt and a divide per element without changing any compared value.
/// (ax, ay) is the point at position i-1 (depot for i == 0), (bx, by)
/// the point at position i, `base` the travel time of the (i-1, i) leg.
/// Returns the first j such that
///   dist((ax,ay), P[j])/speed + dist((bx,by), P[j+1])/speed
///     < (base + tc[j]) - min_gain
/// evaluated with exactly the scalar operation sequence, or kNpos.
std::size_t two_opt_scan(const double* px, const double* py,
                         const double* tc, std::size_t j_begin,
                         std::size_t j_end, double ax, double ay, double bx,
                         double by, double speed, double base,
                         double min_gain);

/// First-improvement scan of Or-opt insertion positions for a fixed
/// segment. (ix, iy) is the segment's first point, (ex, ey) its last;
/// the scan reads px[k], px[k + 1] and tc[k] for k in [k_begin, k_end)
/// (depot sentinel at the last index and leg travel times tc as above).
/// Returns the first k such that
///   (dist(P[k], (ix,iy))/speed + dist((ex,ey), P[k+1])/speed)
///     - tc[k] < threshold
/// evaluated with exactly the scalar operation sequence, or kNpos.
std::size_t or_opt_scan(const double* px, const double* py, const double* tc,
                        std::size_t k_begin, std::size_t k_end, double ix,
                        double iy, double ex, double ey, double speed,
                        double threshold);

/// Simulator drain kernels (sim::simulate's SoA per-sensor state). Both
/// follow the same bitwise-identity contract as the geometry kernels:
/// per-element IEEE-754 operation sequences identical to the scalar
/// reference, reductions that are order-independent for non-NaN input.

/// Earliest request-threshold crossing over the lazy drain states
/// (level[i] at time as_of[i], draining at draw[i] W): per element
///   level[i] <  threshold -> as_of[i]            (already below)
///   draw[i]  <= 0         -> +inf                (never crosses)
///   otherwise             -> as_of[i] + (level[i] - threshold) / draw[i]
///                            + eps
/// and the minimum over the range (inf for n == 0). eps is the caller's
/// strictly-past-the-threshold nudge.
double crossing_min(const double* level, const double* as_of,
                    const double* draw, std::size_t n, double threshold,
                    double eps);

/// Advances every lazy drain state to time t (elements with as_of[i] >= t
/// are untouched), recording first-death instants into dead_since
/// (as_of + level/draw, only where dead_since was +inf), then appends
/// ids[i] to out for every element with level[i] < threshold after the
/// advance, preserving order. Returns the number of ids written; out must
/// have room for n entries.
std::size_t advance_select_below(double* level, double* as_of,
                                 double* dead_since, const double* draw,
                                 std::size_t n, double t, double threshold,
                                 const std::uint32_t* ids, std::uint32_t* out);

/// Blossom dual-adjustment kernels (matching/blossom_core.h). All-integer:
/// every backend is trivially bitwise identical to the scalar loops, and
/// min reductions are order-independent.

inline constexpr std::int64_t kI64Max = INT64_MAX;

/// Batched dual-delta: lab[i] -= d where state[i] == 0 (outer),
/// lab[i] += d where state[i] == 1 (inner); other states untouched.
void i64_dual_apply(std::int64_t* lab, const std::int32_t* state,
                    std::size_t lo, std::size_t hi, std::int64_t d);

/// Min-slack reduction over base ids x in [lo, hi): elements with
/// st[x] == x and slack[x] != 0 contribute val[x] if s[x] == -1 (free) or
/// val[x] >> 1 if s[x] == 0 (outer); inner bases and everything else
/// contribute nothing. val entries reachable by the reduction must be
/// non-negative (dual feasibility guarantees it). Returns kI64Max if no
/// element contributes.
std::int64_t i64_slack_bound(const std::int64_t* val, const std::int32_t* slack,
                             const std::int32_t* st, const std::int32_t* s,
                             std::size_t lo, std::size_t hi);

/// Shifts the cached slack deltas after a dual adjustment by d: elements
/// with st[x] == x and slack[x] != 0 get val[x] -= d if s[x] == -1,
/// val[x] -= 2d if s[x] == 0; inner bases (s[x] == 1) are unchanged (the
/// -d source shift cancels the +d target shift).
void i64_slack_shift(std::int64_t* val, const std::int32_t* slack,
                     const std::int32_t* st, const std::int32_t* s,
                     std::size_t lo, std::size_t hi, std::int64_t d);

}  // namespace mcharge::simd
