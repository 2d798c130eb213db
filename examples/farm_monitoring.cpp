// Precision-agriculture scenario: a planned (jittered-grid) deployment of
// soil sensors monitored for a season, comparing charger fleet sizes.
//
// Demonstrates: instance generation with a grid layout, the simulator, and
// the K sweep a deployment planner would run to size the charger fleet.
//
//   ./build/examples/farm_monitoring [--sensors=400] [--days=120] [--seed=7]
#include <cstdio>

#include "core/appro.h"
#include "model/network.h"
#include "sim/simulation.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

#include <iostream>

int main(int argc, char** argv) {
  using namespace mcharge;
  const CliFlags flags(argc, argv);
  const auto n = flags.get_size("sensors", 400);
  const double days = flags.get_double("days", 120.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  flags.reject_unknown();

  std::printf("Farm monitoring: %zu soil sensors on a jittered grid, "
              "%.0f-day season\n\n",
              n, days);

  model::NetworkConfig config;
  config.rate_max_bps = 20e3;  // soil probes report slowly
  sim::SimConfig sim_config;
  sim_config.monitoring_period_s = days * 86400.0;

  Table table({"chargers", "rounds", "avg_batch", "longest_tour_h",
               "dead_min_per_sensor", "fleet_busy_%"});
  for (std::size_t k = 1; k <= 4; ++k) {
    config.num_chargers = k;
    Rng rng(seed);  // same field for every K
    const auto instance = model::make_instance(config, n, rng,
                                               model::FieldLayout::kGrid);
    core::ApproScheduler appro;
    const auto result = sim::simulate(instance, appro, sim_config);
    table.start_row();
    table.add(static_cast<long long>(k));
    table.add(static_cast<long long>(result.rounds));
    table.add(result.round_batch_size.mean(), 1);
    table.add(result.mean_longest_delay_hours(), 2);
    table.add(result.mean_dead_minutes_per_sensor, 1);
    table.add(result.busy_fraction * 100.0, 1);
    if (result.verify_violations != 0) {
      std::printf("UNEXPECTED: %zu schedule violations at K=%zu\n",
                  result.verify_violations, k);
      return 1;
    }
  }
  table.print(std::cout);
  std::printf("\nReading: pick the smallest K whose dead time and busy "
              "fraction are acceptable for the deployment.\n");
  return 0;
}
