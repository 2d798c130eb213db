#include "core/exact.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "schedule/execute.h"
#include "util/assert.h"

namespace mcharge::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Search {
  const model::ChargingProblem& problem;
  std::size_t k;
  std::vector<std::uint32_t> stops;           // candidate locations (a cover)
  std::vector<char> used;                     // per stops index
  std::vector<std::vector<std::uint32_t>> tours;
  ExactResult* best;
  std::size_t* explored;

  /// Optimistic per-tour delay if the MCV went straight home now:
  /// travel so far + minimal remaining service. Service times are not
  /// counted here (a stop's tau' can be zero if others covered its disk),
  /// keeping the bound admissible.
  double partial_bound() const {
    double worst = 0.0;
    for (const auto& tour : tours) {
      if (tour.empty()) continue;
      double travel = problem.travel_depot(tour.front());
      for (std::size_t i = 0; i + 1 < tour.size(); ++i) {
        travel += problem.travel(tour[i], tour[i + 1]);
      }
      travel += problem.travel_depot(tour.back());
      worst = std::max(worst, travel);
    }
    return worst;
  }

  void evaluate_leaf() {
    sched::ChargingPlan plan;
    plan.mode = sched::ChargeMode::kMultiNode;
    plan.tours = tours;
    const auto schedule = sched::execute_plan(problem, plan);
    if (!schedule.all_charged()) return;  // over-pruned cover orderings
    const double delay = schedule.longest_delay();
    if (delay < best->longest_delay) {
      best->longest_delay = delay;
      best->plan = std::move(plan);
    }
  }

  void recurse(std::size_t assigned) {
    ++*explored;
    if (partial_bound() >= best->longest_delay) return;
    if (assigned == stops.size()) {
      evaluate_leaf();
      return;
    }
    for (std::size_t i = 0; i < stops.size(); ++i) {
      if (used[i]) continue;
      used[i] = 1;
      // Appending to two empty tours is symmetric; only try the first.
      bool tried_empty = false;
      for (std::size_t t = 0; t < k; ++t) {
        if (tours[t].empty()) {
          if (tried_empty) continue;
          tried_empty = true;
        }
        tours[t].push_back(stops[i]);
        recurse(assigned + 1);
        tours[t].pop_back();
      }
      used[i] = 0;
    }
  }
};

}  // namespace

ExactResult exact_min_longest_delay(const model::ChargingProblem& problem) {
  const std::size_t n = problem.size();
  MCHARGE_ASSERT(n <= kExactMaxSensors,
                 "exact solver limited to tiny instances");
  ExactResult best;
  best.longest_delay = kInf;
  best.plan.mode = sched::ChargeMode::kMultiNode;
  best.plan.tours.assign(problem.num_chargers(), {});
  if (n == 0) {
    best.longest_delay = 0.0;
    return best;
  }

  // Precompute coverage bitmasks.
  std::vector<std::uint32_t> cover_mask(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t u : problem.coverage(v)) cover_mask[v] |= 1u << u;
  }
  const std::uint32_t full = (1u << n) - 1u;

  std::size_t explored = 0;
  for (std::uint32_t subset = 1; subset <= full; ++subset) {
    std::uint32_t covered = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (subset & (1u << v)) covered |= cover_mask[v];
    }
    if (covered != full) continue;
    // Note: covers with "coverage-redundant" stops are NOT pruned — an
    // extra stop can strictly help by peeling a slow sensor off another
    // stop's charge set (shorter tau' there), so exactness requires
    // exploring them.

    Search search{problem, problem.num_chargers(), {}, {}, {}, &best,
                  &explored};
    for (std::uint32_t v = 0; v < n; ++v) {
      if (subset & (1u << v)) search.stops.push_back(v);
    }
    search.used.assign(search.stops.size(), 0);
    search.tours.assign(problem.num_chargers(), {});
    search.recurse(0);
  }
  best.nodes_explored = explored;
  MCHARGE_ASSERT(best.longest_delay < kInf, "exact search found no plan");
  return best;
}

}  // namespace mcharge::core
