#include "schedule/estimate.h"

namespace mcharge::sched {

std::vector<double> estimate_tour_bounds(const model::ChargingProblem& problem,
                                         const ChargingPlan& plan) {
  std::vector<double> bounds;
  bounds.reserve(plan.tours.size());
  for (std::size_t k = 0; k < plan.tours.size(); ++k) {
    const auto& tour = plan.tours[k];
    if (tour.empty()) {
      bounds.push_back(0.0);
      continue;
    }
    const geom::Point start = plan.start_of(k, problem.depot());
    double total =
        geom::distance(start, problem.position(tour.front())) /
        problem.speed();
    for (std::size_t l = 0; l < tour.size(); ++l) {
      total += plan.mode == ChargeMode::kMultiNode
                   ? problem.tau(tour[l])
                   : problem.charge_seconds(tour[l]);
      if (l + 1 < tour.size()) total += problem.travel(tour[l], tour[l + 1]);
    }
    total += problem.travel_depot(tour.back());
    bounds.push_back(total);
  }
  return bounds;
}

}  // namespace mcharge::sched
