// Independent feasibility checking of executed schedules.
//
// The checker re-derives every property from the raw sojourn records and
// the ChargingProblem, sharing no code with the executor, so it can catch
// executor bugs as well as infeasible plans.
#pragma once

#include <string>
#include <vector>

#include "model/charging_problem.h"
#include "schedule/execute.h"
#include "schedule/plan.h"

namespace mcharge::sched {

struct VerifyOptions {
  bool require_full_coverage = true;  ///< every sensor must be charged
  /// Accept aborted (breakdown-truncated) tours: the MCV's return_time must
  /// then equal its last sojourn's finish (no depot leg) instead of the
  /// depot return. Without this flag an aborted tour is a violation.
  bool allow_partial = false;
  /// The fault bundle the schedule was executed under, if any. The checker
  /// re-derives expected travel legs and charging durations through the
  /// same multipliers; null means fault-free nominal times.
  const ExecutionFaults* faults = nullptr;
};

/// Returns human-readable violations; empty means the schedule is valid.
/// Checks:
///  * timing consistency per MCV (arrival >= previous finish + travel,
///    start >= arrival, finish >= start, return time correct);
///  * node-disjointness (no location visited twice);
///  * charge-set correctness (charged sensors are inside the sojourn's
///    coverage disk in multi-node mode / equal to the location in
///    one-to-one mode; durations equal the max deficit of the set);
///  * each sensor charged at most once, and at least once if
///    require_full_coverage;
///  * multi-node only: the no-simultaneous-charging constraint — no two
///    active sojourns of different MCVs with intersecting coverage disks
///    may overlap in time;
///  * when options.faults carries an enabled MCV energy budget: each
///    MCV's recomputed draw (arrival-leg locomotion + transfer energy per
///    sojourn, + the depot-return leg unless aborted) fits the battery
///    capacity and matches the executor-reported energy_spent_j, and no
///    completed tour carries a breakdown cause.
std::vector<std::string> verify_schedule(const model::ChargingProblem& problem,
                                         const ChargingSchedule& schedule,
                                         const VerifyOptions& options = {});

}  // namespace mcharge::sched
