// Empirical approximation quality of algorithm Appro.
//
// Theorem 1 proves rho = 40*pi*(tau_max/tau_min) + 1 (~157 at the paper's
// 20% threshold) — a worst-case certificate, not a prediction. This bench
// measures what Appro actually achieves:
//   * vs the EXACT optimum on tiny instances (core::exact_min_longest_delay);
//   * vs the delay lower bounds (core::delay_lower_bound) on paper-scale
//     instances, where the exact optimum is out of reach. Appro/LB is an
//     upper bound on Appro/OPT.
//
// Flags: --tiny_instances=200 --tiny_n=5 --big_instances=20 --big_n=1000
//        --chargers=2 --seed=1
#include <cstdio>
#include <iostream>

#include "core/appro.h"
#include "core/bounds.h"
#include "core/exact.h"
#include "schedule/execute.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace mcharge;

model::ChargingProblem random_round(std::size_t n, std::size_t k, Rng& rng,
                                    double field, double t_lo, double t_hi) {
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, field), rng.uniform(0.0, field)});
    deficits.push_back(rng.uniform(t_lo, t_hi));
  }
  return model::ChargingProblem(std::move(pts), std::move(deficits),
                                {field / 2, field / 2}, 2.7, 1.0, k);
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto tiny_instances = flags.get_count("tiny_instances", 200);
  const auto tiny_n = flags.get_size("tiny_n", 5);
  const auto big_instances = flags.get_count("big_instances", 20);
  const auto big_n = flags.get_size("big_n", 1000);
  const auto k = flags.get_count("chargers", 2);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.reject_unknown();

  core::ApproScheduler appro;

  // --- tiny instances: Appro vs exact optimum ---
  SampleSet vs_exact;
  SampleSet lb_vs_exact;  // how tight the lower bound itself is
  for (std::size_t i = 0; i < tiny_instances; ++i) {
    Rng rng(seed * 40503 + i * 769);
    const std::size_t n = 2 + rng.below(tiny_n - 1);
    const auto p = random_round(n, k, rng, 40.0, 50.0, 400.0);
    const auto exact = core::exact_min_longest_delay(p);
    const double got =
        sched::execute_plan(p, appro.plan(p)).longest_delay();
    if (exact.longest_delay > 0.0) {
      vs_exact.add(got / exact.longest_delay);
      lb_vs_exact.add(core::delay_lower_bound(p) / exact.longest_delay);
    }
  }

  // --- paper-scale instances: Appro vs lower bound ---
  SampleSet vs_bound;
  for (std::size_t i = 0; i < big_instances; ++i) {
    Rng rng(seed * 74093 + i * 331);
    const auto p = random_round(big_n, k, rng, 100.0, 3456.0, 5400.0);
    const double got =
        sched::execute_plan(p, appro.plan(p)).longest_delay();
    const double bound = core::delay_lower_bound(p);
    if (bound > 0.0) vs_bound.add(got / bound);
  }

  Table table({"comparison", "samples", "mean", "median", "p95", "max"});
  auto emit = [&](const char* name, const SampleSet& s) {
    table.start_row();
    table.add(name);
    table.add(static_cast<long long>(s.count()));
    table.add(s.mean(), 3);
    table.add(s.median(), 3);
    table.add(s.quantile(0.95), 3);
    table.add(s.quantile(1.0), 3);
  };
  emit("Appro / exact OPT (tiny)", vs_exact);
  emit("lower bound / exact OPT (tiny)", lb_vs_exact);
  emit("Appro / lower bound (paper-scale)", vs_bound);

  std::printf("Empirical approximation quality (proved rho ~ 157 at the "
              "paper's parameters)\n\n");
  table.print(std::cout);
  std::printf("\ntiny: %zu instances, n in [2, %zu], K=%zu | paper-scale: "
              "%zu instances, n=%zu\n",
              tiny_instances, tiny_n, k, big_instances, big_n);
  return 0;
}
