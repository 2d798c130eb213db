#include "baselines/aa.h"

#include <algorithm>
#include <numeric>

#include "cluster/kmeans.h"
#include "energy/mcv_battery.h"
#include "obs/obs.h"
#include "util/assert.h"
#include "util/rng.h"

namespace mcharge::baselines {

namespace {

/// Seed of the k-means grouping, so a problem always gets the same groups.
constexpr std::uint64_t kKmeansSeed = 0x5eedu;

}  // namespace

sched::ChargingPlan AaScheduler::plan(
    const model::ChargingProblem& problem) const {
  OBS_SPAN("aa.plan");
  const std::size_t n = problem.size();
  const std::size_t k = problem.num_chargers();
  sched::ChargingPlan plan;
  plan.mode = sched::ChargeMode::kOneToOne;
  plan.tours.assign(k, {});
  if (n == 0) return plan;

  // Spatial partition into K groups (k-means over sensor positions).
  Rng rng(kKmeansSeed);
  const auto clustering = cluster::kmeans(problem.positions(), k, rng);

  for (std::size_t g = 0; g < k; ++g) {
    // Members of this group in deadline order.
    std::vector<std::uint32_t> members;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (clustering.label.size() > v && clustering.label[v] == g) {
        members.push_back(v);
      }
    }
    std::stable_sort(members.begin(), members.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return problem.residual_lifetime(a) <
                              problem.residual_lifetime(b);
                     });

    // Profit pruning: charge the sensor only if the energy it receives
    // exceeds the locomotion energy of the detour to reach it.
    geom::Point at = problem.depot();
    for (std::uint32_t v : members) {
      const double detour_m = geom::distance(at, problem.position(v));
      const double travel_energy = energy::kMoveCostJPerM * detour_m;
      const double delivered_j =
          problem.charge_seconds(v) * problem.charging_rate_w();
      if (delivered_j <= travel_energy) continue;  // unprofitable: skip
      plan.tours[g].push_back(v);
      at = problem.position(v);
    }
  }
  return plan;
}

}  // namespace mcharge::baselines
