// Disaster-response scenario: sensors air-dropped around incident hotspots
// (clustered field), high data rates, comparing algorithm Appro against the
// strongest one-to-one baseline (K-minMax) on a single urgent round.
//
// Demonstrates: clustered layouts, building a ChargingProblem directly from
// an instance snapshot, per-algorithm schedule inspection.
//
//   ./build/examples/disaster_response [--sensors=500] [--chargers=3]
#include <cstdio>

#include "baselines/kminmax.h"
#include "core/appro.h"
#include "energy/consumption.h"
#include "model/charging_problem.h"
#include "model/network.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "util/cli.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace mcharge;
  const CliFlags flags(argc, argv);
  const auto n = flags.get_size("sensors", 500);
  const auto k = flags.get_count("chargers", 3);
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 42)));

  model::NetworkConfig config;
  config.rate_max_bps = 50e3;  // video-capable sensors stream heavily
  config.num_chargers = k;
  const auto instance =
      model::make_instance(config, n, rng, model::FieldLayout::kClustered);

  // A storm of requests: every sensor is between 5% and 20% residual.
  std::vector<geom::Point> positions = instance.positions;
  std::vector<double> deficits;
  std::vector<double> lifetimes;
  for (std::size_t v = 0; v < n; ++v) {
    const double residual_fraction = rng.uniform(0.05, 0.20);
    const double residual_j = residual_fraction * config.battery_capacity_j;
    deficits.push_back(
        config.charge_seconds(config.battery_capacity_j - residual_j));
    lifetimes.push_back(residual_j / instance.consumption_w[v]);
  }
  model::ChargingProblem problem(std::move(positions), std::move(deficits),
                                 config.depot, config.charging_radius,
                                 config.mcv_speed, k);
  problem.set_residual_lifetimes(std::move(lifetimes));
  problem.set_charging_rate(config.charging_rate_w);

  std::printf("Disaster response: %zu clustered sensors, %zu chargers, "
              "request storm\n\n",
              n, k);

  core::ApproScheduler appro;
  baselines::KMinMaxScheduler kminmax;
  for (const sched::Scheduler* scheduler :
       {static_cast<const sched::Scheduler*>(&appro),
        static_cast<const sched::Scheduler*>(&kminmax)}) {
    const auto plan = scheduler->plan(problem);
    const auto schedule = sched::execute_plan(problem, plan);
    const auto violations = sched::verify_schedule(problem, schedule);
    std::printf("%-9s stops %4zu  longest delay %7.2f h  wait %6.1f s  "
                "violations %zu\n",
                scheduler->name().c_str(), schedule.num_stops(),
                schedule.longest_delay() / 3600.0, schedule.total_wait(),
                violations.size());
    if (!violations.empty()) return 1;
  }
  std::printf("\nThe multi-node scheme needs far fewer stops in clustered "
              "fields, which is exactly where simultaneous charging pays.\n");
  return 0;
}
