#include "baselines/kedf.h"

#include <algorithm>
#include <numeric>

#include "assignment/hungarian.h"
#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::baselines {

sched::ChargingPlan KEdfScheduler::plan(
    const model::ChargingProblem& problem) const {
  OBS_SPAN("kedf.plan");
  const std::size_t n = problem.size();
  const std::size_t k = problem.num_chargers();
  sched::ChargingPlan plan;
  plan.mode = sched::ChargeMode::kOneToOne;
  plan.tours.assign(k, {});
  if (n == 0) return plan;

  // Deadline order (ties by sensor id for determinism).
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return problem.residual_lifetime(a) <
                            problem.residual_lifetime(b);
                   });

  // MCVs start at the depot and move as they get assigned.
  std::vector<geom::Point> at(k, problem.depot());
  for (std::size_t g = 0; g < n; g += k) {
    const std::size_t group = std::min(k, n - g);
    // rows = sensors of the group, cols = MCVs; rows <= cols always.
    std::vector<std::vector<double>> cost(group, std::vector<double>(k));
    for (std::size_t i = 0; i < group; ++i) {
      const geom::Point p = problem.position(order[g + i]);
      for (std::size_t j = 0; j < k; ++j) {
        cost[i][j] = geom::distance(at[j], p);
      }
    }
    const auto assignment = assignment::solve_assignment(cost);
    for (std::size_t i = 0; i < group; ++i) {
      const std::uint32_t mcv = assignment.column_of_row[i];
      const std::uint32_t sensor = order[g + i];
      plan.tours[mcv].push_back(sensor);
      at[mcv] = problem.position(sensor);
    }
  }
  return plan;
}

}  // namespace mcharge::baselines
