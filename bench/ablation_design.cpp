// Ablation bench for algorithm Appro's design choices (DESIGN.md section 4):
//  * 2-opt / Or-opt improvement on vs off inside the K-optimal closed tour
//    substrate;
//  * the MIS + overlap-graph machinery vs greedy max-coverage.
// The retired tour-builder, MIS-order and insertion-rule rows are frozen in
// EXPERIMENTS.md with the commit that measured them.
//
// Measures the executed longest charge delay on fresh charging rounds
// (not the simulator loop, which would mix in request-dynamics noise).
//
// Flags: --n=1000 --chargers=2 --rounds=10 --seed=1 --jobs=0
// (--jobs: worker threads; 0 = all hardware threads. Output is identical
// for every job count — each (variant, round) work item reseeds itself.)
#include <cstdio>
#include <iostream>
#include <memory>
#include <utility>

#include "baselines/greedy_cover.h"
#include "core/appro.h"
#include "model/charging_problem.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "trace_common.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace mcharge;

model::ChargingProblem random_round(std::size_t n, std::size_t k, Rng& rng) {
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(3456.0, 5400.0));
  }
  return model::ChargingProblem(std::move(pts), std::move(deficits),
                                {50.0, 50.0}, 2.7, 1.0, k);
}

struct Variant {
  std::string name;
  core::ApproOptions options;
};

/// Executed outcome of one (variant, round) work item.
struct DesignItem {
  double delay_h = 0.0;
  double stops = 0.0;
  double wait_s = 0.0;
  std::size_t violations = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const bench::TraceOutput trace(flags);
  const auto n = flags.get_size("n", 1000);
  const auto k = flags.get_count("chargers", 2);
  const auto rounds = flags.get_count("rounds", 10);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto jobs = flags.get_size("jobs", 0);

  std::vector<Variant> variants;
  {
    Variant v{"default (christofides+improve)", {}};
    variants.push_back(v);
  }
  {
    Variant v{"no 2-opt / no or-opt", {}};
    v.options.tour.improve.use_two_opt = false;
    v.options.tour.improve.use_or_opt = false;
    v.options.tour.improve_segments = false;
    variants.push_back(v);
  }
  {
    Variant v{"2-opt only (no or-opt)", {}};
    v.options.tour.improve.use_or_opt = false;
    variants.push_back(v);
  }

  // Full roster up front (variants plus the structural comparator: greedy
  // max-coverage without the MIS + overlap-graph machinery) so the rounds
  // flatten into one (variant, round) work list.
  std::vector<std::pair<std::string, std::unique_ptr<sched::Scheduler>>> algos;
  for (const auto& variant : variants) {
    algos.emplace_back(variant.name,
                       std::make_unique<core::ApproScheduler>(variant.options));
  }
  algos.emplace_back("greedy-cover (no MIS/H)",
                     std::make_unique<baselines::GreedyCoverScheduler>());

  std::vector<DesignItem> results(algos.size() * rounds);
  parallel_for(
      results.size(),
      [&](std::size_t idx) {
        const std::size_t a = idx / rounds;
        const std::size_t r = idx % rounds;
        Rng rng(derive_seed(seed, r));  // same round problem for all variants
        const auto problem = random_round(n, k, rng);
        const auto schedule =
            sched::execute_plan(problem, algos[a].second->plan(problem));
        DesignItem& item = results[idx];
        item.violations = sched::verify_schedule(problem, schedule).size();
        item.delay_h = schedule.longest_delay() / 3600.0;
        item.stops = static_cast<double>(schedule.num_stops());
        item.wait_s = schedule.total_wait();
      },
      jobs);

  // Reduce in round order per variant, on this thread.
  Table table({"variant", "mean_delay_h", "max_delay_h", "mean_stops",
               "mean_wait_s", "violations"});
  for (std::size_t a = 0; a < algos.size(); ++a) {
    RunningStats delay, stops, wait;
    std::size_t violations = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const DesignItem& item = results[a * rounds + r];
      delay.add(item.delay_h);
      stops.add(item.stops);
      wait.add(item.wait_s);
      violations += item.violations;
    }
    table.start_row();
    table.add(algos[a].first);
    table.add(delay.mean(), 3);
    table.add(delay.max(), 3);
    table.add(stops.mean(), 1);
    table.add(wait.mean(), 1);
    table.add(static_cast<long long>(violations));
  }
  std::printf("Appro design ablation: n=%zu, K=%zu, %zu fresh rounds\n\n", n,
              k, rounds);
  table.print(std::cout);
  return 0;
}
