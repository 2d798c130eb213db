// Exact minimum-weight perfect matching via the O(n^3) weighted blossom
// algorithm (Galil's primal-dual scheme with lazy slack maintenance, the
// classic formulation used throughout the literature).
//
// Two engines share the same templated primal-dual core
// (blossom_core.h), differing only in how edges are supplied:
//
//  * Dense: every pair is materialized into an (n+1)^2 weight matrix.
//    Simple and exact, but O(n^2) memory and O(n^3) time make it the
//    right choice only up to a few hundred vertices. kAuto runs it on
//    every odd set below kSparseCrossover, the smallest ones included:
//    the jump-started solve beats a 2^n bitmask DP from n = 10 up.
//
//  * Sparse price-and-repair: an exact solve on a k-nearest-neighbor
//    candidate graph, followed by a SIMD-accelerated pricing pass that
//    scans all absent pairs against the solver's final duals and
//    re-solves with any violated edge added, until complementary
//    slackness holds on the COMPLETE graph. The result is certified
//    optimal for the same integer objective the dense engine solves —
//    not a heuristic — while doing (empirically) a small constant number
//    of near-linear-size solves.
//
// Internally both maximize total integer "profit": real costs are
// quantized through the shared perturbed quantizer (quantize.h), whose
// pseudo-random sub-integer tie perturbation makes the integer optimum
// (generically) unique — so the two engines return identical matchings,
// which the differential tests assert. With at least 2^20 quantization
// steps over the cost range the matching is optimal to within ~1e-6 of
// the true real-valued optimum on typical geometric inputs, and the
// tests verify it against the bitmask-DP oracle (tests/matching_oracle.h)
// on every instance small enough to cross-check.
//
// Complexity: dense O(n^3); sparse roughly O(n * k * sqrt(n) * alpha)
// per repair round in practice — comfortably fast at the odd-vertex sets
// Christofides produces at this project's scales (n up to ~4096).
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/point.h"
#include "matching/matching.h"

namespace mcharge::matching {

/// Dense-engine exact matching on Euclidean points (even count). Uses the
/// shared perturbed quantizer, so the result is bit-identical to the
/// sparse engine's.
Matching dense_blossom_euclidean_matching(const std::vector<geom::Point>& pts);

/// Sparse price-and-repair exact matching on Euclidean points (even
/// count). Optimal for the same quantized objective as the dense engine
/// (certified by a complete-graph dual feasibility check), at a small
/// fraction of the dense cost for large n. `knn` is the candidate-graph
/// neighbor count (>= 1; 8 is a good default).
Matching sparse_blossom_euclidean_matching(const std::vector<geom::Point>& pts,
                                           int knn = 8);

/// Guaranteed minimum resolution when quantizing real weights to
/// integers. The geometric engines use an adaptive resolution that is
/// never below this (see matching/quantize.h).
inline constexpr std::int64_t kBlossomResolution = 1 << 20;

}  // namespace mcharge::matching
