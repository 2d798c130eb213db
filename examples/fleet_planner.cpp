// Fleet planner CLI: reads a charging round from a CSV (x,y,deficit_j and
// optionally residual lifetime per line), runs a chosen algorithm, and
// prints the tour for each MCV in dispatch-ready order. Without --input it
// generates a demo round.
//
//   ./build/examples/fleet_planner --input=round.csv --algo=appro
//             --chargers=2 [--gamma=2.7] [--speed=1] [--depot_x=50] [--depot_y=50]
//       [--gantt] [--schedule_csv=out.csv]
#include <cstdio>
#include <string>

#include "baselines/aa.h"
#include "baselines/greedy_cover.h"
#include "baselines/kedf.h"
#include "baselines/kminmax.h"
#include "baselines/netwrap.h"
#include "core/appro.h"
#include "io/instance_io.h"
#include "io/schedule_io.h"
#include "model/charging_problem.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace mcharge;

sched::SchedulerPtr make_scheduler(const std::string& name) {
  if (name == "appro") return std::make_unique<core::ApproScheduler>();
  if (name == "kminmax") return std::make_unique<baselines::KMinMaxScheduler>();
  if (name == "kedf") return std::make_unique<baselines::KEdfScheduler>();
  if (name == "netwrap") return std::make_unique<baselines::NetwrapScheduler>();
  if (name == "aa") return std::make_unique<baselines::AaScheduler>();
  if (name == "greedycover") {
    return std::make_unique<baselines::GreedyCoverScheduler>();
  }
  return nullptr;
}

io::RoundData demo_round(std::uint64_t seed) {
  Rng rng(seed);
  io::RoundData round;
  for (int i = 0; i < 200; ++i) {
    round.positions.push_back(
        {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    round.deficit_joules.push_back(rng.uniform(0.7, 1.0) * 10.8e3);
  }
  return round;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const std::string algo_name = flags.get("algo", "appro");
  const auto scheduler = make_scheduler(algo_name);
  if (!scheduler) {
    std::fprintf(
        stderr,
        "unknown --algo=%s (appro|kminmax|kedf|netwrap|aa|greedycover)\n",
        algo_name.c_str());
    return 2;
  }

  io::RoundData round;
  if (flags.has("input")) {
    std::string error;
    const auto loaded = io::read_round_csv(flags.get("input", ""), &error);
    if (!loaded) {
      std::fprintf(stderr, "failed to read round CSV: %s\n", error.c_str());
      return 2;
    }
    round = *loaded;
  } else {
    std::printf("# no --input given; generating a demo round\n");
    round = demo_round(static_cast<std::uint64_t>(flags.get_int("seed", 9)));
  }

  const double eta = flags.get_double("rate_w", 2.0);
  model::ChargingProblem problem = round.to_problem(
      {flags.get_double("depot_x", 50.0), flags.get_double("depot_y", 50.0)},
      flags.get_double("gamma", 2.7), flags.get_double("speed", 1.0),
      flags.get_count("chargers", 2), eta);

  const auto plan = scheduler->plan(problem);
  const auto schedule = sched::execute_plan(problem, plan);
  sched::VerifyOptions opts;
  opts.require_full_coverage = algo_name != "aa";
  const auto violations = sched::verify_schedule(problem, schedule, opts);

  std::printf("# algorithm: %s   sensors: %zu   chargers: %zu\n",
              scheduler->name().c_str(), problem.size(),
              problem.num_chargers());
  std::printf("# longest delay: %.2f h   conflict wait: %.1f s   "
              "violations: %zu\n",
              schedule.longest_delay() / 3600.0, schedule.total_wait(),
              violations.size());
  const auto energy = schedule.energy_use(problem);
  for (std::size_t k = 0; k < schedule.mcvs.size(); ++k) {
    std::printf("mcv %zu (return %.1f s, delivers %.1f kJ, drives %.1f kJ):\n",
                k, schedule.mcvs[k].return_time,
                energy[k].delivered_j / 1e3, energy[k].locomotion_j / 1e3);
    for (const auto& s : schedule.mcvs[k].sojourns) {
      std::printf(
          "  stop at sensor %4u (%.1f, %.1f)  arrive %8.1f  charge "
          "[%8.1f, %8.1f]  charges %zu sensor(s)\n",
          s.location, problem.position(s.location).x,
          problem.position(s.location).y, s.arrival, s.start, s.finish,
          s.charged.size());
    }
  }
  if (flags.get_bool("gantt", false)) {
    std::printf("\n%s", io::render_timeline(problem, schedule, 100).c_str());
  }
  if (flags.has("schedule_csv")) {
    const std::string out = flags.get("schedule_csv", "");
    if (io::write_schedule_csv(out, problem, schedule)) {
      std::printf("# schedule written to %s\n", out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", out.c_str());
      return 2;
    }
  }
  for (const auto& v : violations) std::printf("VIOLATION: %s\n", v.c_str());
  return violations.empty() ? 0 : 1;
}
