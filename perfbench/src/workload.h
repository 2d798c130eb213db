// The benchmark's named workloads and the pass that simulates them.
//
// A workload is a fixed list of (instance, algorithm, SimConfig) items made
// from the seed alone. One pass runs every item through sim::simulate with
// each scheduler inside a TimedScheduler, the way the figure benches do:
// one parallel_for per instance size, over that size's items.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/network.h"
#include "schedule/scheduler.h"
#include "sim/simulation.h"
#include "timed_scheduler.h"

namespace perfbench {

/// The five schedulers of the paper's evaluation, in its legend order.
enum class Algo : std::size_t { kAppro, kKEdf, kNetwrap, kAa, kKMinMax };
inline constexpr std::size_t kNumAlgos = 5;
/// Metric-name key of each Algo.
inline constexpr std::array<const char*, kNumAlgos> kAlgoKeys = {
    "appro", "kedf", "netwrap", "aa", "kminmax"};

/// Every workload uses the paper's field and K = 2 chargers
/// (model::NetworkConfig defaults).
struct WorkloadSpec {
  std::string name;
  std::vector<std::size_t> sizes;  ///< sensor count per instance group
  std::size_t instances_per_size = 1;
  /// The other algorithms run on every baseline_stride-th instance of a
  /// size, Appro on all: Appro's p99 needs many rounds, while a baseline
  /// that costs several Appro runs would make the pass too long.
  std::size_t baseline_stride = 1;
  double months = 12.0;  ///< 30-day months, as the figure benches count
  double dispatch_epoch_s = 0.0;
  std::vector<Algo> algorithms;
  /// Fault injection as in bench/fault_ablation, recovery policy cycling
  /// defer, graft, replan over the instances.
  bool faults = false;
  double mcv_capacity_j = 0.0;  ///< 0 = unlimited MCV energy
  std::size_t jobs = 1;         ///< parallel_for workers per size group
};

/// The named workloads: fig3-sweep, daily-overload, fault-recovery.
std::vector<WorkloadSpec> workload_specs();
std::optional<WorkloadSpec> find_workload(std::string_view name);

struct SimItem {
  std::size_t instance = 0;  ///< index into Workload::instances
  Algo algo = Algo::kAppro;
  mcharge::sim::SimConfig config;
  /// Rounds are captured for replay in capturing passes: true for the
  /// first instance of each size, which bounds the captured memory.
  bool replayed = false;
};

/// A workload made ready to simulate: instances generated, schedulers built.
struct Workload {
  WorkloadSpec spec;
  std::vector<mcharge::model::WrsnInstance> instances;
  std::array<mcharge::sched::SchedulerPtr, kNumAlgos> schedulers;
  std::vector<SimItem> items;  ///< grouped by instance size, in spec order
  double make_instance_s = 0.0;  ///< wall time spent in model::make_instance
};

/// Generates the instances and schedulers of `spec` from `seed`.
Workload set_up(const WorkloadSpec& spec, std::uint64_t seed);

/// What one simulation produced, as seen from outside.
struct ItemResult {
  mcharge::sim::SimResult result;
  std::uint64_t digest = 0;
  std::vector<double> plan_call_s;  ///< TimedScheduler call times
  std::size_t plan_sites = 0;
  std::vector<CapturedRound> captured;  ///< replayed items, capturing passes
  double start_s = 0.0;  ///< item start, seconds after the pass began
  double end_s = 0.0;
};

struct PassResult {
  std::vector<ItemResult> items;  ///< parallel to Workload::items
  double wall_s = 0.0;
  double sim_years = 0.0;  ///< simulated instance-years (365 days each)
  double tail_s = 0.0;     ///< per size group: end minus last item start
};

/// Simulates every item once. With `capture`, replayed items keep each
/// round's problem and plan.
PassResult run_pass(const Workload& workload, bool capture);

/// FNV-1a digest over every field of a SimResult, doubles by bit pattern.
std::uint64_t digest(const mcharge::sim::SimResult& result);

}  // namespace perfbench
