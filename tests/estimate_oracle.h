// Test oracle: plan-time delay bounds (Eq. (5) of the paper).
//
// Before execution, the delay of MCV k's tour can be upper-bounded by
// charging tau(v) (Eq. (2): the worst case, as if nothing in v's disk had
// been charged yet) at every stop:
//
//   T(k) = sum_l [ tau(v_l) + travel(v_l -> v_{l+1}) ] + travel back,
//
// while the executed delay T'(k) uses the de-duplicated tau' (Eq. (3)) and
// satisfies T'(k) <= T(k) for any schedule that never waits (the paper's
// Section III-C claim; executor waiting can exceed the bound, which is
// exactly why Appro's conflict-free construction matters). The property
// tests check executed schedules against it.
#pragma once

#include <vector>

#include "geometry/point.h"
#include "model/charging_problem.h"
#include "schedule/plan.h"

namespace mcharge::sched::oracle {

/// Per-MCV upper bounds T(k) for a plan (Eq. (5)). For one-to-one plans
/// tau(v) degenerates to t_v, making the estimate exact rather than an
/// upper bound.
inline std::vector<double> estimate_tour_bounds(
    const model::ChargingProblem& problem, const ChargingPlan& plan) {
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

}  // namespace mcharge::sched::oracle
