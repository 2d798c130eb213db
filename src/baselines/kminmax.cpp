#include "baselines/kminmax.h"

#include "obs/obs.h"

namespace mcharge::baselines {

KMinMaxScheduler::KMinMaxScheduler(tsp::MinMaxTourOptions options)
    : options_(std::move(options)) {}

sched::ChargingPlan KMinMaxScheduler::plan(
    const model::ChargingProblem& problem) const {
  OBS_SPAN("kminmax.plan");
  tsp::TourProblem tour_problem;
  tour_problem.depot = problem.depot();
  tour_problem.speed = problem.speed();
  tour_problem.sites = problem.positions();
  tour_problem.service = problem.charge_seconds();

  const tsp::SplitResult split =
      tsp::min_max_k_tours(tour_problem, problem.num_chargers(), options_);

  sched::ChargingPlan plan;
  plan.mode = sched::ChargeMode::kOneToOne;
  plan.tours.reserve(split.tours.size());
  for (const auto& tour : split.tours) {
    plan.tours.emplace_back(tour.begin(), tour.end());
  }
  return plan;
}

}  // namespace mcharge::baselines
