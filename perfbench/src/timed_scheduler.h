// A scheduler wrapper that measures planning from outside the library.
//
// The simulator only sees a sched::Scheduler, so wrapping the scheduler
// under test is the one place where every planning call of a simulated
// round can be timed without touching src/. The wrapper forwards each call
// to the wrapped scheduler and returns its plan untouched; it records the
// call's wall time and |V_s|, and on request keeps a copy of the frozen
// problem and the plan so the round can be replayed stage by stage later.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "model/charging_problem.h"
#include "schedule/plan.h"
#include "schedule/scheduler.h"

namespace perfbench {

/// One planning call as the simulator made it.
struct CapturedRound {
  mcharge::model::ChargingProblem problem;
  mcharge::sched::ChargingPlan plan;
};

/// Times every plan()/plan_with_jobs() call of the wrapped scheduler. Use
/// one wrapper per simulation: the recorders are not synchronised.
class TimedScheduler final : public mcharge::sched::Scheduler {
 public:
  TimedScheduler(const mcharge::sched::Scheduler& inner, bool capture)
      : inner_(inner), capture_(capture) {}

  std::string name() const override { return inner_.name(); }

  mcharge::sched::ChargingPlan plan(
      const mcharge::model::ChargingProblem& problem) const override {
    return record(problem, [&] { return inner_.plan(problem); });
  }

  mcharge::sched::ChargingPlan plan_with_jobs(
      const mcharge::model::ChargingProblem& problem,
      std::size_t jobs) const override {
    return record(problem, [&] { return inner_.plan_with_jobs(problem, jobs); });
  }

  /// Wall seconds of each call, in call order.
  const std::vector<double>& call_seconds() const { return call_s_; }
  /// Sum of |V_s| over all calls.
  std::size_t sites() const { return sites_; }
  /// Problems and plans of every call (empty unless capturing).
  std::vector<CapturedRound> take_captured() { return std::move(captured_); }

 private:
  template <typename Call>
  mcharge::sched::ChargingPlan record(
      const mcharge::model::ChargingProblem& problem, Call&& call) const {
    const auto start = std::chrono::steady_clock::now();
    mcharge::sched::ChargingPlan plan = call();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    call_s_.push_back(took.count());
    sites_ += problem.size();
    if (capture_) captured_.push_back({problem, plan});
    return plan;
  }

  const mcharge::sched::Scheduler& inner_;
  bool capture_;
  mutable std::vector<double> call_s_;
  mutable std::size_t sites_ = 0;
  mutable std::vector<CapturedRound> captured_;
};

}  // namespace perfbench
