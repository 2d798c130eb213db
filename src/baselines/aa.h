// Baseline AA (Wang et al., IEEE TC'16; benchmark (iv)).
//
// Partitions the to-be-charged sensors into K spatial groups with k-means,
// assigns one MCV per group, and has each MCV serve its group in residual-
// lifetime (deadline) order, charging a sensor only when it is profitable:
// the energy delivered must exceed the MCV's travel energy spent reaching
// it (energy::kMoveCostJPerM * detour meters). Unprofitable sensors are
// dropped from the plan (they are what drives AA's large dead durations in
// the paper's Fig. 3(b)). One-to-one charging.
#pragma once

#include "schedule/scheduler.h"

namespace mcharge::baselines {

class AaScheduler : public sched::Scheduler {
 public:
  std::string name() const override { return "AA"; }
  sched::ChargingPlan plan(const model::ChargingProblem& problem) const override;
};

}  // namespace mcharge::baselines
