// simulate_campaign — full-control CLI around the simulator. Runs one
// monitoring campaign of a WRSN under a chosen algorithm and reports every
// metric the library tracks; optionally persists the instance, the
// per-round log, and an SVG of the field.
//
//   ./build/examples/simulate_campaign --algo=appro --n=1000 --chargers=2
//             [--layout=uniform|clustered|grid]
//       [--months=12] [--epoch_h=0] [--threshold=0.2]
//       [--bmax_kbps=50] [--seed=1]
//       [--save_instance=inst.csv] [--load_instance=inst.csv]
//       [--rounds_csv=rounds.csv] [--svg=field.svg]
#include <cstdio>
#include <fstream>
#include <memory>

#include "baselines/aa.h"
#include "baselines/greedy_cover.h"
#include "baselines/kedf.h"
#include "baselines/kminmax.h"
#include "baselines/netwrap.h"
#include "core/appro.h"
#include "io/instance_io.h"
#include "sim/simulation.h"
#include "sim/validate.h"
#include "util/cli.h"
#include "util/rng.h"
#include "viz/render.h"

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

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  // Every flag is read up front, whichever input mode runs, so that a
  // misspelt one is rejected before any work starts.
  const std::string algo_name = flags.get("algo", "appro");
  const std::string load_path = flags.get("load_instance", "");
  const std::string save_path = flags.get("save_instance", "");
  model::NetworkConfig config;
  config.num_chargers = flags.get_count("chargers", 2);
  config.request_threshold = flags.get_double("threshold", 0.2);
  config.rate_max_bps = flags.get_double("bmax_kbps", 50.0) * 1e3;
  const std::string layout_name = flags.get("layout", "uniform");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::size_t n = flags.get_size("n", 1000);
  sim::SimConfig sim_config;
  sim_config.monitoring_period_s =
      flags.get_double("months", 12.0) * 30.0 * 86400.0;
  sim_config.dispatch_epoch_s = flags.get_double("epoch_h", 0.0) * 3600.0;
  const std::string rounds_csv = flags.get("rounds_csv", "");
  const std::string svg_path = flags.get("svg", "");
  const bool verbose = flags.get_bool("verbose", false);
  sim_config.record_rounds = flags.has("rounds_csv") || verbose;
  flags.reject_unknown();

  const auto scheduler = make_scheduler(algo_name);
  if (!scheduler) {
    std::fprintf(
        stderr,
        "unknown --algo=%s (appro|kminmax|kedf|netwrap|aa|greedycover)\n",
        algo_name.c_str());
    return 2;
  }

  model::WrsnInstance instance;
  if (flags.has("load_instance")) {
    std::string error;
    const auto loaded = io::read_instance_csv(load_path, &error);
    if (!loaded) {
      std::fprintf(stderr, "failed to load instance: %s\n", error.c_str());
      return 2;
    }
    instance = *loaded;
  } else {
    const auto layout = model::parse_layout(layout_name);
    if (!layout) {
      std::fprintf(stderr,
                   "error: unknown --layout=%s (uniform|clustered|grid)\n",
                   layout_name.c_str());
      return 2;
    }
    if (const auto error = sim::validate_network(config)) {
      std::fprintf(stderr, "error: %s\n", error->message.c_str());
      return 2;
    }
    Rng rng(seed);
    instance = model::make_instance(config, n, rng, *layout);
  }
  if (flags.has("save_instance")) {
    if (!io::write_instance_csv(save_path, instance)) {
      std::fprintf(stderr, "failed to save instance\n");
      return 2;
    }
  }

  if (const auto error = sim::validate_sim_inputs(instance, sim_config)) {
    std::fprintf(stderr, "error: %s\n", error->message.c_str());
    return 2;
  }
  const sim::SimResult result = sim::simulate(instance, *scheduler, sim_config);

  // Every charge fills the battery (Eq. (1)): the target is always 1.00.
  std::printf("campaign: algo=%s n=%zu K=%zu months=%.1f epoch_h=%.1f "
              "target=1.00\n",
              scheduler->name().c_str(), instance.num_sensors(),
              instance.config.num_chargers,
              sim_config.monitoring_period_s / (30.0 * 86400.0),
              sim_config.dispatch_epoch_s / 3600.0);
  std::printf("  rounds                   %zu\n", result.rounds);
  std::printf("  charge events            %zu\n", result.sensors_charged);
  std::printf("  mean batch size          %.1f (max %.0f)\n",
              result.round_batch_size.mean(), result.round_batch_size.max());
  std::printf("  mean longest tour        %.2f h (max %.2f h)\n",
              result.mean_longest_delay_hours(),
              result.round_longest_delay_s.max() / 3600.0);
  std::printf("  dead time per sensor     %.1f min mean, %.1f min worst\n",
              result.mean_dead_minutes_per_sensor,
              result.max_dead_minutes_per_sensor());
  std::printf("  request latency          %.2f h mean, %.2f h worst\n",
              result.request_latency_s.mean() / 3600.0,
              result.request_latency_s.max() / 3600.0);
  std::printf("  fleet busy fraction      %.3f\n", result.busy_fraction);
  std::printf("  conflict waiting         %.1f s total\n",
              result.total_conflict_wait_s);
  std::printf("  verifier violations      %zu\n", result.verify_violations);
  if (result.total_dead_seconds > 0.0) {
    std::printf("  dead minutes by 30-day window:");
    for (double s : result.dead_seconds_by_month) {
      std::printf(" %.0f", s / 60.0);
    }
    std::printf("\n");
  }

  if (flags.has("rounds_csv")) {
    std::ofstream out(rounds_csv);
    out << "dispatch_s,batch,charged,longest_delay_s,wait_s\n";
    for (const auto& r : result.rounds_log) {
      out << r.dispatch_time << ',' << r.batch << ',' << r.charged << ','
          << r.longest_delay_s << ',' << r.wait_s << '\n';
    }
    std::printf("  rounds log               %s\n", rounds_csv.c_str());
  }
  if (flags.has("svg")) {
    std::ofstream out(svg_path);
    out << viz::render_instance_svg(instance);
    std::printf("  field SVG                %s\n", svg_path.c_str());
  }
  return result.verify_violations == 0 ? 0 : 1;
}
