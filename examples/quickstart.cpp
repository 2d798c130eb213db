// Quickstart: build a charging round by hand, run algorithm Appro, execute
// the plan, and print the resulting tours and delays.
//
//   ./build/examples/quickstart [--sensors=300] [--chargers=2] [--seed=1]
#include <cstdio>

#include "core/appro.h"
#include "model/charging_problem.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "util/cli.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace mcharge;
  const CliFlags flags(argc, argv);
  const auto n = flags.get_size("sensors", 300);
  const auto k = flags.get_count("chargers", 2);
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));

  // --- 1. A charging round: n sensors that requested charging, each with a
  // deficit, in a 100 x 100 m field with the depot at the center. ---
  std::vector<geom::Point> positions;
  std::vector<double> deficits_seconds;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    // 64%..100% of a full battery at the paper's 2 W charging rate.
    deficits_seconds.push_back(rng.uniform(3456.0, 5400.0));
  }
  model::ChargingProblem problem(std::move(positions),
                                 std::move(deficits_seconds), {50.0, 50.0},
                                 /*gamma=*/2.7, /*speed=*/1.0, k);

  // --- 2. Run the paper's algorithm. ---
  core::ApproScheduler appro;
  core::ApproStats stats;
  const sched::ChargingPlan plan = appro.plan_with_stats(problem, &stats);

  // --- 3. Execute and certify the schedule. ---
  const sched::ChargingSchedule schedule = sched::execute_plan(problem, plan);
  const auto violations = sched::verify_schedule(problem, schedule);

  std::printf("mcharge quickstart\n");
  std::printf("  sensors to charge      %zu\n", n);
  std::printf("  mobile chargers (K)    %zu\n", k);
  std::printf("  |S_I| (MIS of G_c)     %zu\n", stats.s_i);
  std::printf("  |V'_H| (MIS of H)      %zu\n", stats.v_h);
  std::printf("  Delta_H                %zu (Lemma 2 bound: 26)\n",
              stats.h_max_degree);
  std::printf("  insertions case (i)    %zu\n", stats.inserted_case_one);
  std::printf("  insertions case (ii)   %zu\n", stats.inserted_case_two);
  std::printf("  dropped (covered)      %zu\n", stats.dropped_covered);
  std::printf("  total sojourn stops    %zu\n", plan.total_stops());
  for (std::size_t i = 0; i < schedule.mcvs.size(); ++i) {
    std::printf("  MCV %zu: %3zu stops, tour delay %8.1f s (%.2f h)\n", i,
                schedule.mcvs[i].sojourns.size(),
                schedule.mcvs[i].return_time,
                schedule.mcvs[i].return_time / 3600.0);
  }
  std::printf("  longest charge delay   %.2f h\n",
              schedule.longest_delay() / 3600.0);
  std::printf("  conflict waiting       %.1f s\n", schedule.total_wait());
  std::printf("  all sensors charged    %s\n",
              schedule.all_charged() ? "yes" : "NO");
  std::printf("  verifier violations    %zu\n", violations.size());
  for (const auto& v : violations) std::printf("    %s\n", v.c_str());
  return violations.empty() && schedule.all_charged() ? 0 : 1;
}
