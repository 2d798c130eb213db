// Closed-tour construction over a TourProblem.
//
// The constructor returns a complete tour (a permutation of all sites); the
// depot is implicit at both ends. The TSP is solved over sites + depot; the
// returned order is the cycle cut at the depot.
#pragma once

#include "matching/matching.h"
#include "tsp/tour_problem.h"

namespace mcharge::tsp {

/// Christofides: MST + minimum-weight matching on the odd-degree
/// vertices + Euler shortcut. The matching runs on the odd vertices'
/// coordinates through the geometric engine dispatch, so `matching`
/// selects the engine (exact blossom up to matching::kBlossomLimit odd
/// vertices by default — the 1.5-approximation holds throughout).
Tour christofides_tour(const TourProblem& problem,
                       const matching::MatchingOptions& matching = {});

/// One-value enum kept only for the benchmark replay, which still reads
/// MinMaxTourOptions::builder; it goes, with build_tour, at the next
/// benchmark change.
enum class TourBuilder {
  kChristofides,  ///< MST + odd-vertex matching + Euler (1.5-approx)
};

/// Forwards to christofides_tour; goes with TourBuilder.
Tour build_tour(const TourProblem& problem, TourBuilder builder,
                const matching::MatchingOptions& matching = {});

}  // namespace mcharge::tsp
