// Recovery-policy ablation under rising MCV breakdown rates.
//
// Sweeps the per-round breakdown probability over {0, 0.1, 0.25, 0.5} with
// travel/charging jitter and dispatch delays switched on, and runs the
// year-long simulation under each RecoveryPolicy (defer / graft / replan)
// with algorithm Appro. Reported per cell: dead minutes per sensor, mean
// longest tour, total breakdowns, orphans recovered vs deferred, and the
// extra delay the recovery itself cost. The bench hard-fails if any
// executed (possibly partial) schedule has verifier violations or a run
// hits the max_rounds safety cap — the acceptance gate for the fault layer.
//
// A second table sweeps the MCV battery budget instead of the breakdown
// rate: a metering pass per instance (capacity pinned effectively
// unlimited, record_tour_energy on) captures every per-tour energy draw,
// then each policy re-runs the simulation with the capacity pinned to
// the {1.0, 0.95, 0.85} quantiles of that distribution. Breakdown
// coin-flips are off in this table so every abort is a battery
// exhaustion; the tightest budget must abort at least 10% of tours or
// the bench fails — the acceptance gate for the energy layer.
//
// Flags: --n=400 --chargers=3 --instances=5 --months=6 --seed=1
//        --fault-seed=1 --jobs=0 --mcv-budget=J --budget-sweep=1
//        [--csv=PREFIX]
// (--jobs: worker threads; 0 = all hardware threads. Output is identical
// for every job count — each (policy, rate, instance) work item reseeds
// itself from the instance index alone. --mcv-budget: fixed capacity in
// joules for the breakdown-rate table, 0 = unlimited. --budget-sweep=0
// skips the budget table.)
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "core/appro.h"
#include "core/replan.h"
#include "model/network.h"
#include "sim/simulation.h"
#include "trace_common.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mcharge;
  const CliFlags flags(argc, argv);
  const bench::TraceOutput trace(flags);
  const auto n = flags.get_size("n", 400);
  const auto k = flags.get_count("chargers", 3);
  const auto instances = flags.get_count("instances", 5);
  const double months = flags.get_double("months", 6.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto fault_seed =
      static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  const auto jobs = flags.get_size("jobs", 0);
  const double mcv_budget_j = flags.get_double("mcv-budget", 0.0);
  const bool budget_sweep = flags.get_int("budget-sweep", 1) != 0;
  const std::string csv = flags.get("csv", "");

  struct Policy {
    const char* name;
    core::RecoveryPolicy policy;
  };
  const Policy policies[] = {
      {"defer", core::RecoveryPolicy::kDefer},
      {"graft", core::RecoveryPolicy::kGraft},
      {"replan", core::RecoveryPolicy::kReplan},
  };
  const double rates[] = {0.0, 0.1, 0.25, 0.5};
  constexpr std::size_t kNumPolicies = std::size(policies);
  constexpr std::size_t kNumRates = std::size(rates);

  struct Item {
    double dead_min = 0.0;
    double tour_h = 0.0;
    double breakdowns = 0.0;
    double recovered = 0.0;
    double deferred = 0.0;
    double extra_delay_min = 0.0;
    std::size_t violations = 0;
    bool capped = false;  ///< hit max_rounds — invalidates the run
  };

  core::ApproScheduler appro;
  // One work item per (policy, rate, instance): the instance regenerates
  // from the instance index alone, so every (policy, rate) cell simulates
  // the same instance stream under the same fault stream — the policies
  // face identical breakdowns.
  std::vector<Item> items(kNumPolicies * kNumRates * instances);
  parallel_for(
      items.size(),
      [&](std::size_t idx) {
        const std::size_t p = idx / (kNumRates * instances);
        const std::size_t r = idx / instances % kNumRates;
        const std::size_t i = idx % instances;
        model::NetworkConfig config;
        config.num_chargers = k;
        Rng rng(derive_seed(seed, i));
        const auto instance = model::make_instance(config, n, rng);
        sim::SimConfig sim_config;
        sim_config.monitoring_period_s = months * 30.0 * 86400.0;
        sim_config.faults.seed = derive_seed(fault_seed, i);
        sim_config.faults.mcv_breakdown_prob = rates[r];
        sim_config.faults.travel_jitter = 0.1;
        sim_config.faults.charge_jitter = 0.05;
        sim_config.faults.dispatch_delay_prob = 0.1;
        sim_config.faults.dispatch_delay_max_s = 1800.0;
        sim_config.recovery = policies[p].policy;
        sim_config.mcv_budget.capacity_j = mcv_budget_j;
        const auto result = sim::simulate(instance, appro, sim_config);
        Item& item = items[idx];
        item.dead_min = result.mean_dead_minutes_per_sensor;
        item.tour_h = result.mean_longest_delay_hours();
        item.breakdowns = static_cast<double>(result.mcv_breakdowns);
        item.recovered = static_cast<double>(result.recovered_sensors);
        item.deferred = static_cast<double>(result.deferred_sensors);
        item.extra_delay_min = result.extra_recovery_delay_s / 60.0;
        item.violations = result.verify_violations;
        item.capped =
            result.truncated_reason == sim::TruncationReason::kMaxRounds;
      },
      jobs);

  std::size_t violations = 0;
  std::size_t capped = 0;
  for (const Item& item : items) {
    violations += item.violations;
    if (item.capped) ++capped;
  }

  Table table({"policy", "p_break", "dead_min", "tour_h", "breakdowns",
               "recovered", "deferred", "extra_delay_min"});
  for (std::size_t p = 0; p < kNumPolicies; ++p) {
    for (std::size_t r = 0; r < kNumRates; ++r) {
      Item mean;
      for (std::size_t i = 0; i < instances; ++i) {
        const Item& item = items[(p * kNumRates + r) * instances + i];
        mean.dead_min += item.dead_min;
        mean.tour_h += item.tour_h;
        mean.breakdowns += item.breakdowns;
        mean.recovered += item.recovered;
        mean.deferred += item.deferred;
        mean.extra_delay_min += item.extra_delay_min;
      }
      const double d = static_cast<double>(instances);
      table.start_row();
      table.add(policies[p].name);
      table.add(rates[r], 2);
      table.add(mean.dead_min / d, 1);
      table.add(mean.tour_h / d, 2);
      table.add(mean.breakdowns / d, 1);
      table.add(mean.recovered / d, 1);
      table.add(mean.deferred / d, 1);
      table.add(mean.extra_delay_min / d, 1);
    }
  }

  std::printf("\nrecovery-policy ablation: Appro, n=%zu, K=%zu, "
              "%.1f-month horizon, %zu instance(s)/cell\n",
              n, k, months, instances);
  std::printf("jitter: travel 10%%, charge 5%%; dispatch delay: "
              "p=0.1, <=30 min\n");
  table.print(std::cout);
  std::printf("\nschedule verifier violations across all runs: %zu\n",
              violations);
  if (!csv.empty()) {
    table.write_csv(csv + ".csv");
    std::printf("CSV written to %s.csv\n", csv.c_str());
  }

  // --- MCV battery-budget sweep -------------------------------------------
  // Calibrates per instance: a metering run with an effectively unlimited
  // capacity records every per-tour draw, and the sweep places the
  // capacity at quantiles of that distribution. Coin-flip breakdowns stay
  // off so every abort in this table is a battery exhaustion, which keeps
  // the abort column attributable to the budget alone.
  bool budget_fail = false;
  if (budget_sweep) {
    const double quantiles[] = {1.0, 0.95, 0.85};
    constexpr std::size_t kNumFactors = std::size(quantiles);
    const auto base_sim_config = [&](std::size_t i) {
      sim::SimConfig sc;
      sc.monitoring_period_s = months * 30.0 * 86400.0;
      sc.faults.seed = derive_seed(fault_seed, i);
      sc.faults.travel_jitter = 0.1;
      sc.faults.charge_jitter = 0.05;
      sc.faults.dispatch_delay_prob = 0.1;
      sc.faults.dispatch_delay_max_s = 1800.0;
      return sc;
    };

    // Metering pass: one run per instance, capacity high enough that
    // nothing aborts (1e15 J keeps spent() exact to sub-joule ulps), with
    // record_tour_energy on to capture every per-tour draw unconstrained.
    // The sweep anchors the capacity on quantiles of that distribution: a
    // capacity at quantile q leaves roughly a (1-q) fraction of the
    // metered tours infeasible, so cap_q = 0.85 starves ~15% of tours on
    // the first pass and deferral load can only push that up. The two
    // naive anchors both fail: the peak alone (all cap_q = 1.0 rows)
    // starves only the extreme tail (< 1% aborts), while the mean sits so
    // deep in the distribution that deferrals cascade and every row
    // saturates near 100% aborts.
    std::vector<std::vector<double>> draws(instances);
    parallel_for(
        instances,
        [&](std::size_t i) {
          model::NetworkConfig config;
          config.num_chargers = k;
          Rng rng(derive_seed(seed, i));
          const auto instance = model::make_instance(config, n, rng);
          sim::SimConfig sc = base_sim_config(i);
          sc.mcv_budget.capacity_j = 1e15;
          sc.record_tour_energy = true;
          auto r = sim::simulate(instance, appro, sc);
          draws[i] = std::move(r.mcv_tour_energy_j);
          std::sort(draws[i].begin(), draws[i].end());
        },
        jobs);
    const auto quantile_j = [&](std::size_t i, double q) {
      const auto& d = draws[i];
      if (d.empty()) return 0.0;
      const double pos = q * static_cast<double>(d.size() - 1);
      return d[static_cast<std::size_t>(pos)];
    };

    struct BudgetItem {
      double dead_min = 0.0;
      double tour_h = 0.0;
      double energy_aborts = 0.0;
      double abort_frac = 0.0;
      double extra_delay_min = 0.0;
      std::size_t violations = 0;
      bool capped = false;
    };
    std::vector<BudgetItem> bitems(kNumPolicies * kNumFactors * instances);
    parallel_for(
        bitems.size(),
        [&](std::size_t idx) {
          const std::size_t p = idx / (kNumFactors * instances);
          const std::size_t f = idx / instances % kNumFactors;
          const std::size_t i = idx % instances;
          model::NetworkConfig config;
          config.num_chargers = k;
          Rng rng(derive_seed(seed, i));
          const auto instance = model::make_instance(config, n, rng);
          sim::SimConfig sc = base_sim_config(i);
          sc.recovery = policies[p].policy;
          sc.mcv_budget.capacity_j = quantile_j(i, quantiles[f]);
          const auto r = sim::simulate(instance, appro, sc);
          BudgetItem& item = bitems[idx];
          item.dead_min = r.mean_dead_minutes_per_sensor;
          item.tour_h = r.mean_longest_delay_hours();
          item.energy_aborts = static_cast<double>(r.mcv_energy_exhausted);
          const double tours =
              static_cast<double>(r.rounds) * static_cast<double>(k);
          item.abort_frac =
              tours > 0.0 ? item.energy_aborts / tours : 0.0;
          item.extra_delay_min = r.extra_recovery_delay_s / 60.0;
          item.violations = r.verify_violations;
          item.capped =
              r.truncated_reason == sim::TruncationReason::kMaxRounds;
        },
        jobs);

    Table budget_table({"policy", "cap_q", "dead_min", "tour_h",
                        "energy_aborts", "abort_pct", "extra_delay_min"});
    double tightest_abort_frac = 0.0;
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
      for (std::size_t f = 0; f < kNumFactors; ++f) {
        BudgetItem mean;
        for (std::size_t i = 0; i < instances; ++i) {
          const BudgetItem& item =
              bitems[(p * kNumFactors + f) * instances + i];
          mean.dead_min += item.dead_min;
          mean.tour_h += item.tour_h;
          mean.energy_aborts += item.energy_aborts;
          mean.abort_frac += item.abort_frac;
          mean.extra_delay_min += item.extra_delay_min;
          violations += item.violations;
          if (item.capped) ++capped;
        }
        const double d = static_cast<double>(instances);
        if (f == kNumFactors - 1) {
          tightest_abort_frac = std::max(tightest_abort_frac,
                                         mean.abort_frac / d);
        }
        budget_table.start_row();
        budget_table.add(policies[p].name);
        budget_table.add(quantiles[f], 2);
        budget_table.add(mean.dead_min / d, 1);
        budget_table.add(mean.tour_h / d, 2);
        budget_table.add(mean.energy_aborts / d, 1);
        budget_table.add(100.0 * mean.abort_frac / d, 1);
        budget_table.add(mean.extra_delay_min / d, 1);
      }
    }

    std::printf("\nMCV battery-budget sweep: capacity = the cap_q quantile "
                "of the metered per-tour draws,\nbreakdown coin-flips off "
                "(every abort below is a battery exhaustion)\n");
    budget_table.print(std::cout);
    if (!csv.empty()) {
      budget_table.write_csv(csv + "_budget.csv");
      std::printf("CSV written to %s_budget.csv\n", csv.c_str());
    }
    if (tightest_abort_frac < 0.10) {
      std::fprintf(stderr,
                   "FAIL: tightest budget aborted only %.1f%% of tours "
                   "(want >= 10%%)\n",
                   100.0 * tightest_abort_frac);
      budget_fail = true;
    }
  }

  if (violations > 0) {
    std::fprintf(stderr, "FAIL: verifier violations under faults\n");
    return 1;
  }
  if (capped > 0) {
    std::fprintf(stderr, "FAIL: %zu run(s) hit the max_rounds cap\n", capped);
    return 1;
  }
  return budget_fail ? 1 : 0;
}
