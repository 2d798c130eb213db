// The Scheduler interface implemented by algorithm Appro and the baselines.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "model/charging_problem.h"
#include "schedule/plan.h"

namespace mcharge::sched {

/// A charging-tour scheduling algorithm: maps one charging round's problem
/// (the frozen set V_s with deficits) to a plan for the K MCVs.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Human-readable algorithm name (matches the paper's legend).
  virtual std::string name() const = 0;

  /// Computes a plan covering every sensor of the problem.
  virtual ChargingPlan plan(const model::ChargingProblem& problem) const = 0;

  /// Deprecated: planners are single-threaded (parallelism lives at the
  /// sweep grain, util/parallel.h), so the hint is ignored and this is
  /// plan(). Kept virtual so existing wrappers that forward it still build;
  /// nothing in the library calls it.
  virtual ChargingPlan plan_with_jobs(const model::ChargingProblem& problem,
                                      std::size_t jobs) const {
    (void)jobs;
    return plan(problem);
  }
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

}  // namespace mcharge::sched
