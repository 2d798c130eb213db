#include "baselines/netwrap.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::baselines {

NetwrapScheduler::NetwrapScheduler(double travel_weight)
    : travel_weight_(travel_weight) {
  MCHARGE_ASSERT(travel_weight >= 0.0 && travel_weight <= 1.0,
                 "travel weight must be in [0, 1]");
}

sched::ChargingPlan NetwrapScheduler::plan(
    const model::ChargingProblem& problem) const {
  OBS_SPAN("netwrap.plan");
  const std::size_t n = problem.size();
  const std::size_t k = problem.num_chargers();
  sched::ChargingPlan plan;
  plan.mode = sched::ChargeMode::kOneToOne;
  plan.tours.assign(k, {});
  if (n == 0) return plan;

  struct McvState {
    double time;
    geom::Point at;
    std::uint32_t id;
    bool operator>(const McvState& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };
  std::priority_queue<McvState, std::vector<McvState>, std::greater<McvState>>
      idle;
  for (std::uint32_t j = 0; j < k; ++j) idle.push({0.0, problem.depot(), j});

  std::vector<char> assigned(n, 0);
  std::size_t remaining = n;
  while (remaining > 0) {
    McvState mcv = idle.top();
    idle.pop();

    // Normalization constants over the remaining candidates.
    double max_travel = 0.0;
    double max_life = 0.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (assigned[v]) continue;
      max_travel = std::max(
          max_travel, geom::distance(mcv.at, problem.position(v)));
      const double life = problem.residual_lifetime(v);
      if (life != std::numeric_limits<double>::infinity()) {
        max_life = std::max(max_life, life);
      }
    }

    double best_score = std::numeric_limits<double>::infinity();
    std::uint32_t best = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (assigned[v]) continue;
      const double travel = geom::distance(mcv.at, problem.position(v));
      const double life = problem.residual_lifetime(v);
      const double norm_travel = max_travel > 0.0 ? travel / max_travel : 0.0;
      double norm_life = 0.0;
      if (max_life > 0.0 && life != std::numeric_limits<double>::infinity()) {
        norm_life = life / max_life;
      } else if (life == std::numeric_limits<double>::infinity()) {
        norm_life = 1.0;
      }
      const double score =
          travel_weight_ * norm_travel + (1.0 - travel_weight_) * norm_life;
      if (score < best_score) {
        best_score = score;
        best = v;
      }
    }

    assigned[best] = 1;
    --remaining;
    plan.tours[mcv.id].push_back(best);
    const double travel_time =
        geom::distance(mcv.at, problem.position(best)) / problem.speed();
    mcv.time += travel_time + problem.charge_seconds(best);
    mcv.at = problem.position(best);
    idle.push(mcv);
  }
  return plan;
}

}  // namespace mcharge::baselines
