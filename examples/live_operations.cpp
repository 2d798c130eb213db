// Live operations: plan a round with Appro, interrupt it mid-flight,
// reconstruct the fleet state, replan the remainder from the MCVs' current
// positions, and export SVG snapshots of both plans.
//
//   ./build/examples/live_operations [--sensors=250] [--chargers=3]
//       [--interrupt=0.4] [--svg_prefix=/tmp/ops]
#include <cstdio>
#include <fstream>

#include "core/appro.h"
#include "core/replan.h"
#include "io/schedule_io.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "util/cli.h"
#include "util/rng.h"
#include "viz/render.h"
#include "viz/svg.h"

int main(int argc, char** argv) {
  using namespace mcharge;
  const CliFlags flags(argc, argv);
  const auto n = flags.get_size("sensors", 250);
  const auto k = flags.get_count("chargers", 3);
  const double interrupt = flags.get_double("interrupt", 0.4);
  const std::string svg_prefix = flags.get("svg_prefix", "");
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 17)));
  flags.reject_unknown();

  // A charging round.
  std::vector<geom::Point> positions;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(3456.0, 5400.0));
  }
  model::ChargingProblem problem(std::move(positions), std::move(deficits),
                                 {50.0, 50.0}, 2.7, 1.0, k);

  core::ApproScheduler appro;
  const auto schedule = sched::execute_plan(problem, appro.plan(problem));
  std::printf("initial plan: %zu stops, longest delay %.2f h\n",
              schedule.num_stops(), schedule.longest_delay() / 3600.0);

  // Interrupt mid-round.
  const double t = interrupt * schedule.longest_delay();
  const auto state = core::fleet_state_at(problem, schedule, t);
  std::printf("interrupt at %.2f h: %zu/%zu sensors charged, fleet at:\n",
              t / 3600.0, state.num_charged(), n);
  for (std::size_t j = 0; j < state.mcv_positions.size(); ++j) {
    std::printf("  MCV %zu at (%.1f, %.1f)\n", j, state.mcv_positions[j].x,
                state.mcv_positions[j].y);
  }

  // Replan the remainder from where the fleet stands.
  const auto replan = core::replan_from(problem, state);
  const auto new_schedule =
      sched::execute_plan(replan.subproblem, replan.plan);
  const auto violations =
      sched::verify_schedule(replan.subproblem, new_schedule);
  std::printf("replanned %zu remaining sensors: %zu stops, finish in "
              "%.2f h, %zu violations\n",
              replan.subproblem.size(), new_schedule.num_stops(),
              new_schedule.longest_delay() / 3600.0, violations.size());
  std::printf("%s", io::render_timeline(replan.subproblem, new_schedule, 80)
                        .c_str());

  if (!svg_prefix.empty()) {
    const auto save = [](const std::string& path, const std::string& doc) {
      std::ofstream out(path);
      out << doc;
      std::printf("wrote %s\n", path.c_str());
      return static_cast<bool>(out);
    };
    save(svg_prefix + "_initial.svg",
         viz::render_schedule_svg(problem, schedule));
    save(svg_prefix + "_replanned.svg",
         viz::render_schedule_svg(replan.subproblem, new_schedule));
  }
  return violations.empty() && new_schedule.all_charged() ? 0 : 1;
}
