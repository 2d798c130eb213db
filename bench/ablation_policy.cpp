// Dispatch-policy ablation: on-demand fleet departures (the paper's
// implicit policy) versus epoch-based departures (daily / weekly), under
// algorithm Appro and the strongest one-to-one baseline.
//
// Epochs trade request latency for batch size — and batch size is what
// multi-node charging feeds on: large epochs concentrate requests so each
// sojourn charges more sensors. The bench quantifies both sides (dead time
// up, tour efficiency up).
//
// Flags: --n=1000 --chargers=2 --instances=5 --months=12 --seed=1 --jobs=0
// (--jobs: worker threads; 0 = all hardware threads. Output is identical
// for every job count — each (algorithm, policy, instance) work item
// reseeds itself from the instance index alone.)
#include <cstdio>
#include <iostream>
#include <iterator>
#include <vector>

#include "baselines/kminmax.h"
#include "core/appro.h"
#include "model/network.h"
#include "sim/simulation.h"
#include "trace_common.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

/// Simulated outcome of one (algorithm, policy, instance) work item.
struct PolicyItem {
  double rounds = 0.0;
  double batch = 0.0;
  double tour_h = 0.0;
  double dead_min = 0.0;
  double stops_ratio = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mcharge;
  const CliFlags flags(argc, argv);
  const bench::TraceOutput trace(flags);
  const auto n = flags.get_size("n", 1000);
  const auto k = flags.get_count("chargers", 2);
  const auto instances = flags.get_count("instances", 5);
  const double months = flags.get_double("months", 12.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto jobs = flags.get_size("jobs", 0);

  struct Policy {
    const char* name;
    double epoch_s;
  };
  const Policy policies[] = {
      {"on-demand", 0.0},
      {"epoch=6h", 6.0 * 3600.0},
      {"epoch=1d", 86400.0},
      {"epoch=3d", 3.0 * 86400.0},
  };

  core::ApproScheduler appro;
  baselines::KMinMaxScheduler kminmax;
  const sched::Scheduler* algorithms[] = {
      static_cast<const sched::Scheduler*>(&appro),
      static_cast<const sched::Scheduler*>(&kminmax)};
  constexpr std::size_t kNumAlgos = std::size(algorithms);
  constexpr std::size_t kNumPolicies = std::size(policies);

  // One work item per (algorithm, policy, instance) triple; the instance
  // is regenerated from a seed derived from its index alone, so every
  // (algorithm, policy) cell simulates the same instance stream.
  std::vector<PolicyItem> items(kNumAlgos * kNumPolicies * instances);
  parallel_for(
      items.size(),
      [&](std::size_t idx) {
        const std::size_t a = idx / (kNumPolicies * instances);
        const std::size_t p = idx / instances % kNumPolicies;
        const std::size_t i = idx % instances;
        model::NetworkConfig config;
        config.num_chargers = k;
        Rng rng(derive_seed(seed, i));
        const auto instance = model::make_instance(config, n, rng);
        sim::SimConfig sim_config;
        sim_config.monitoring_period_s = months * 30.0 * 86400.0;
        sim_config.dispatch_epoch_s = policies[p].epoch_s;
        sim_config.record_rounds = true;
        const auto r = sim::simulate(instance, *algorithms[a], sim_config);
        PolicyItem& item = items[idx];
        item.rounds = static_cast<double>(r.rounds);
        item.batch = r.round_batch_size.mean();
        item.tour_h = r.mean_longest_delay_hours();
        item.dead_min = r.mean_dead_minutes_per_sensor;
        // Multi-node efficiency proxy: charge events per... sojourn stops
        // are not directly in SimResult; batch/charged ratio suffices.
        double charged = 0.0, batches = 0.0;
        for (const auto& round : r.rounds_log) {
          charged += static_cast<double>(round.charged);
          batches += static_cast<double>(round.batch);
        }
        item.stops_ratio = batches > 0.0 ? charged / batches : 1.0;
      },
      jobs);

  // Reduce in instance order per (algorithm, policy) cell, on this thread.
  Table table({"algorithm", "policy", "rounds", "mean_batch",
               "mean_tour_h", "dead_min_per_sensor", "charged_per_batch"});
  for (std::size_t a = 0; a < kNumAlgos; ++a) {
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
      RunningStats rounds, batch, tour, dead, stops_ratio;
      for (std::size_t i = 0; i < instances; ++i) {
        const PolicyItem& item = items[(a * kNumPolicies + p) * instances + i];
        rounds.add(item.rounds);
        batch.add(item.batch);
        tour.add(item.tour_h);
        dead.add(item.dead_min);
        stops_ratio.add(item.stops_ratio);
      }
      table.start_row();
      table.add(algorithms[a]->name());
      table.add(policies[p].name);
      table.add(rounds.mean(), 0);
      table.add(batch.mean(), 1);
      table.add(tour.mean(), 2);
      table.add(dead.mean(), 1);
      table.add(stops_ratio.mean(), 3);
    }
  }
  std::printf("Dispatch-policy ablation: n=%zu, K=%zu, %zu instance(s), "
              "%.1f months\n\n",
              n, k, instances, months);
  table.print(std::cout);
  return 0;
}
