// Plan-time delay estimation (Eq. (5) of the paper).
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
// exactly why Appro's conflict-free construction matters).
#pragma once

#include <vector>

#include "model/charging_problem.h"
#include "schedule/plan.h"

namespace mcharge::sched {

/// Per-MCV upper bounds T(k) for a plan (Eq. (5)). For one-to-one plans
/// tau(v) degenerates to t_v, making the estimate exact rather than an
/// upper bound.
std::vector<double> estimate_tour_bounds(const model::ChargingProblem& problem,
                                         const ChargingPlan& plan);

}  // namespace mcharge::sched
