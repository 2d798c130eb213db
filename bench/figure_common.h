// Shared harness for the figure-reproduction benches.
//
// Each paper figure plots, for the five algorithms, (a) the average longest
// tour duration (hours) and (b) the average dead duration per sensor
// (minutes) over a monitoring period, as one experiment knob sweeps. The
// harness runs `instances` random WRSN instances per sweep point, feeds
// each through the year-long (configurable) simulator under every
// algorithm, and prints both series as tables + CSV.
//
// Common flags (all benches):
//   --instances=N   instances per point           (default 10; paper: 100)
//   --months=M      monitoring period in months   (default 12, as the paper)
//   --seed=S        base RNG seed                 (default 1)
//   --jobs=N        worker threads; 0 = all hardware threads (default),
//                   1 = serial. Output is byte-identical for every N.
//   --mcv-budget=J  usable MCV battery capacity in joules (default 0 =
//                   unlimited). Enabling it routes every round through the
//                   budgeted executor: tours that would overdraw abort at
//                   the exhaustion point and the orphaned stops are pushed
//                   to the next round (RecoveryPolicy::kDefer).
//   --csv=PREFIX    also write PREFIX_a.csv / PREFIX_b.csv
//
// The (instance, algorithm) work items are the one grain of parallelism:
// each simulation and each planner call runs on a single thread.
#pragma once

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aa.h"
#include "baselines/kedf.h"
#include "baselines/kminmax.h"
#include "baselines/netwrap.h"
#include "core/appro.h"
#include "sim/simulation.h"
#include "util/assert.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace mcharge::bench {

inline std::vector<sched::SchedulerPtr> paper_algorithms() {
  std::vector<sched::SchedulerPtr> out;
  out.push_back(std::make_unique<core::ApproScheduler>());
  out.push_back(std::make_unique<baselines::KEdfScheduler>());
  out.push_back(std::make_unique<baselines::NetwrapScheduler>());
  out.push_back(std::make_unique<baselines::AaScheduler>());
  out.push_back(std::make_unique<baselines::KMinMaxScheduler>());
  return out;
}

struct SweepSettings {
  std::size_t instances = 10;
  double months = 12.0;
  std::uint64_t seed = 1;
  /// Worker threads for the (instance, algorithm) work items; 0 = all
  /// hardware threads, 1 = serial. Never affects the numbers, only speed.
  std::size_t jobs = 0;
  /// MCV battery capacity in joules; 0 (default) = unlimited, taking the
  /// unbudgeted simulator path byte for byte (SimConfig::mcv_budget).
  double mcv_budget_j = 0.0;
  std::string csv_prefix;  ///< empty = no CSV files
  /// Sensor placement. The paper uses uniform; --layout=clustered/grid
  /// checks that the conclusions survive other deployment shapes.
  model::FieldLayout layout = model::FieldLayout::kUniform;

  static SweepSettings from_flags(const CliFlags& flags) {
    SweepSettings s;
    s.instances = flags.get_count("instances", 10);
    s.months = flags.get_double("months", 12.0);
    s.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    s.jobs = flags.get_size("jobs", 0);
    s.mcv_budget_j = flags.get_double("mcv-budget", 0.0);
    s.csv_prefix = flags.get("csv", "");
    const std::string layout = flags.get("layout", "uniform");
    if (layout == "clustered") s.layout = model::FieldLayout::kClustered;
    if (layout == "grid") s.layout = model::FieldLayout::kGrid;
    return s;
  }
};

/// One sweep point: a label value (e.g. n) and a configured instance
/// factory. The harness owns averaging across instances and algorithms.
struct PointResult {
  std::vector<double> longest_tour_hours;   ///< per algorithm (mean)
  std::vector<double> dead_minutes;         ///< per algorithm (mean)
  std::vector<double> tour_stddev;          ///< across instances
  std::vector<double> dead_stddev;          ///< across instances
  std::size_t violations = 0;
};

/// Runs one sweep point and averages it per algorithm.
///
/// One work item per (instance, algorithm) pair: the item regenerates
/// its instance from a seed derived only from the instance index (all
/// algorithms see the same instance, and no state crosses items), runs
/// the year-long simulation, and records into its own slot. The mapping
/// of items to threads therefore cannot influence any number. The
/// reduction then runs single-threaded in instance order, folding each
/// item in as a one-sample RunningStats merge (not add(): the two round
/// differently), which keeps the published figure tables bit-identical.
template <typename MakeInstance>
PointResult run_point(const SweepSettings& settings,
                      const std::vector<sched::SchedulerPtr>& algorithms,
                      MakeInstance&& make_instance) {
  sim::SimConfig sim_config;
  sim_config.monitoring_period_s = settings.months * 30.0 * 86400.0;
  sim_config.mcv_budget.capacity_j = settings.mcv_budget_j;

  const std::size_t num_algos = algorithms.size();
  std::vector<sim::SimResult> items(settings.instances * num_algos);
  parallel_for(
      items.size(),
      [&](std::size_t idx) {
        Rng rng(derive_seed(settings.seed, idx / num_algos));
        const model::WrsnInstance instance = make_instance(rng);
        items[idx] =
            sim::simulate(instance, *algorithms[idx % num_algos], sim_config);
        // A run cut off by the max_rounds safety cap is a partial
        // measurement — averaging it into the figure would silently skew
        // the series. (kHorizonMidRound is fine: the last round of a
        // loaded run routinely straddles the end of the period.)
        MCHARGE_ASSERT(
            items[idx].truncated_reason != sim::TruncationReason::kMaxRounds,
            "figure point hit SimConfig::max_rounds — results are partial");
      },
      settings.jobs);

  std::vector<RunningStats> tour(num_algos);
  std::vector<RunningStats> dead(num_algos);
  PointResult result;
  for (std::size_t idx = 0; idx < items.size(); ++idx) {
    RunningStats item_tour, item_dead;
    item_tour.add(items[idx].mean_longest_delay_hours());
    item_dead.add(items[idx].mean_dead_minutes_per_sensor);
    tour[idx % num_algos].merge(item_tour);
    dead[idx % num_algos].merge(item_dead);
    result.violations += items[idx].verify_violations;
  }
  for (std::size_t a = 0; a < num_algos; ++a) {
    result.longest_tour_hours.push_back(tour[a].mean());
    result.dead_minutes.push_back(dead[a].mean());
    result.tour_stddev.push_back(tour[a].stddev());
    result.dead_stddev.push_back(dead[a].stddev());
  }
  return result;
}

/// Drives a whole figure sweep: the bench main adds one point per knob
/// value, then finish() prints the figure.
class FigureSweep {
 public:
  FigureSweep(std::string figure, std::string knob, SweepSettings settings)
      : figure_(std::move(figure)),
        knob_(std::move(knob)),
        settings_(std::move(settings)),
        algorithms_(paper_algorithms()) {}

  const SweepSettings& settings() const { return settings_; }
  const std::vector<sched::SchedulerPtr>& algorithms() const {
    return algorithms_;
  }

  template <typename MakeInstance>
  void add_point(std::string label, MakeInstance&& make_instance) {
    points_.push_back(run_point(settings_, algorithms_, make_instance));
    labels_.push_back(std::move(label));
  }

  /// Prints the two series ((a) tour duration, (b) dead duration) and
  /// optionally writes CSVs. Returns the process exit code.
  int finish() const {
    std::vector<std::string> headers{knob_};
    for (const auto& a : algorithms_) headers.push_back(a->name());
    // Both outputs also carry per-algorithm stddev columns (across the
    // replicated instances) so plots can show error bars.
    for (const auto& a : algorithms_) headers.push_back(a->name() + "_sd");

    Table tour(headers);
    Table dead(headers);
    std::size_t violations = 0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      tour.start_row();
      tour.add(labels_[i]);
      for (double v : points_[i].longest_tour_hours) tour.add(v, 2);
      for (double v : points_[i].tour_stddev) tour.add(v, 2);
      dead.start_row();
      dead.add(labels_[i]);
      for (double v : points_[i].dead_minutes) dead.add(v, 1);
      for (double v : points_[i].dead_stddev) dead.add(v, 1);
      violations += points_[i].violations;
    }

    std::printf("\n%s(a): average longest tour duration (hours)\n",
                figure_.c_str());
    tour.print(std::cout);
    std::printf("\n%s(b): average dead duration per sensor (minutes)\n",
                figure_.c_str());
    dead.print(std::cout);
    std::printf("\nschedule verifier violations across all runs: %zu\n",
                violations);
    std::printf("settings: %zu instance(s)/point, %.1f-month horizon "
                "(paper: 100 instances, 12 months)\n",
                settings_.instances, settings_.months);
    if (!settings_.csv_prefix.empty()) {
      tour.write_csv(settings_.csv_prefix + "_a.csv");
      dead.write_csv(settings_.csv_prefix + "_b.csv");
      std::printf("CSV written to %s_a.csv / %s_b.csv\n",
                  settings_.csv_prefix.c_str(), settings_.csv_prefix.c_str());
    }
    return 0;
  }

 private:
  std::string figure_;
  std::string knob_;
  SweepSettings settings_;
  std::vector<sched::SchedulerPtr> algorithms_;
  std::vector<std::string> labels_;
  std::vector<PointResult> points_;
};

}  // namespace mcharge::bench
