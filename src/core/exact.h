// Exact solver for the longest charge delay minimization problem on tiny
// instances, by exhaustive branch-and-bound over multi-node plans.
//
// Semantics match the executor: a candidate is a covering set of sojourn
// locations partitioned into K ordered tours; its value is the executed
// longest delay (including any conflict waiting the executor inserts). The
// search enumerates every covering location subset and every ordered
// partition of it, pruning branches whose partial delay already exceeds
// the incumbent. Exponential — usable up to ~7 sensors / stops — and meant
// for tests and the empirical-approximation-ratio bench, not production.
#pragma once

#include <cstddef>

#include "model/charging_problem.h"
#include "schedule/plan.h"

namespace mcharge::core {

/// Hard cap on problem size (asserted); the search is O(m! * K^m) per
/// covering subset, over all 2^n covering subsets.
inline constexpr std::size_t kExactMaxSensors = 7;

struct ExactResult {
  sched::ChargingPlan plan;      ///< an optimal plan
  double longest_delay = 0.0;    ///< its executed longest delay
  std::size_t nodes_explored = 0;
};

/// Exhaustively minimizes the executed longest delay. The problem must
/// have at most kExactMaxSensors sensors.
ExactResult exact_min_longest_delay(const model::ChargingProblem& problem);

}  // namespace mcharge::core
