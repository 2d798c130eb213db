// Minimum-weight perfect matching on complete graphs with an even number of
// vertices (the matching step of Christofides' TSP construction).
//
// Engines:
//  * dense blossom (matching/blossom.h): exact O(n^3) primal-dual solver
//    on a materialized (n+1)^2 weight matrix; kAuto's engine for every
//    n below kSparseCrossover.
//  * sparse blossom (matching/blossom.h): exact price-and-repair solver
//    on a k-NN candidate graph, certified optimal against the complete
//    graph by a SIMD pricing pass over the final duals. kAuto's engine
//    from kSparseCrossover to kBlossomLimit — same answers as dense,
//    small fraction of the cost at large n.
//  * local search: greedy nearest-pair construction followed by repeated
//    2-exchange improvement to a local optimum; the fallback beyond
//    kBlossomLimit and a comparison point in the micro benches (within
//    ~2% of optimal on Euclidean inputs).
//
// Callers (Christofides odd-vertex matching) use
// min_weight_euclidean_matching, which keeps Christofides' real
// 1.5-approx guarantee intact up to kBlossomLimit = 4096 vertices — the
// blossom engines cover every paper-scale instance exactly; only beyond
// that does the heuristic local search take over. The tests' oracle for
// arbitrary weights, a bitmask DP, lives in tests/matching_oracle.h.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/point.h"

namespace mcharge::matching {

/// Pairs in a perfect matching; each vertex appears exactly once.
using Matching = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Largest n routed to an exact blossom engine on geometric instances;
/// above this the 2-exchange local search takes over. 4096 covers every
/// odd-vertex set the paper-scale Christofides runs produce, so the
/// 1.5-approximation guarantee holds throughout the evaluated range.
inline constexpr std::size_t kBlossomLimit = 4096;

/// Below this size kAuto prefers the dense engine over the sparse one:
/// the sparse engine's candidate-build + pricing overhead only amortizes
/// once the (n+1)^2 dense solve is expensive enough. On Christofides odd
/// sets captured from Appro rounds, sparse/dense is 1.1-1.2x at 32-47
/// vertices, 1.00 at 48-55 and 0.92 at 56-63, falling to about 0.5 at
/// 128-159 (see EXPERIMENTS.md). Both engines return the identical
/// matching, so this is purely a latency knob.
inline constexpr std::size_t kSparseCrossover = 56;

/// Which matching engine to run on geometric instances.
enum class MatchingEngine : std::uint8_t {
  kAuto = 0,       ///< size-based: dense blossom, sparse, local search
  kDenseBlossom,   ///< dense O(n^3) blossom, exact
  kSparseBlossom,  ///< sparse price-and-repair blossom, exact
  kLocalSearch,    ///< greedy + 2-exchange heuristic
};

struct MatchingOptions {
  MatchingEngine engine = MatchingEngine::kAuto;
};

/// Greedy + 2-exchange local-search matching on `pts` (even count) under
/// Euclidean distance.
Matching local_search_matching(const std::vector<geom::Point>& pts);

/// Geometric dispatch: minimum-weight perfect matching on `pts` (even
/// count) under Euclidean distance, engine per `opts`. kAuto routes
/// n < kSparseCrossover to the dense blossom, n <= kBlossomLimit to the
/// sparse blossom, local search beyond. Both blossom engines share one quantized objective with
/// deterministic tie-breaking, so forcing kDenseBlossom vs
/// kSparseBlossom yields identical matchings — the crossover is purely
/// a latency choice.
Matching min_weight_euclidean_matching(const std::vector<geom::Point>& pts,
                                       const MatchingOptions& opts = {});

/// True iff m is a perfect matching over n vertices.
bool is_perfect_matching(std::size_t n, const Matching& m);

}  // namespace mcharge::matching
