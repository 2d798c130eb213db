// Fault-injection suite: determinism of the fault streams, zero-fault
// byte-identity, verifier-clean recovery under heavy breakdown rates, the
// truncation flag, and the structured input validation.
//
// The contracts under test:
//  * for a fixed fault seed, the full SimResult is bit-identical across
//    sweep worker counts, SIMD backends, and is so for every recovery policy
//    (the policies differ from each other, but each is deterministic);
//  * a FaultConfig with all rates at zero takes exactly the fault-free
//    code path — byte-identical to a default-constructed config;
//  * every executed (possibly partial) schedule passes the verifier with
//    zero violations at breakdown rates up to 0.5 per round;
//  * validate_sim_inputs rejects malformed inputs with structured errors
//    before simulate() would assert deep in the round loop.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <algorithm>

#include "core/appro.h"
#include "core/replan.h"
#include "energy/mcv_battery.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "sim/faults.h"
#include "sim/simulation.h"
#include "sim/validate.h"
#include "sim_compare.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace mcharge::sim {
namespace {

model::WrsnInstance hot_instance(std::uint64_t seed, std::size_t n,
                                 double heat) {
  Rng rng(seed);
  auto instance = model::make_instance(model::NetworkConfig{}, n, rng);
  for (auto& w : instance.consumption_w) w *= heat;
  return instance;
}

FaultConfig harsh_faults(std::uint64_t seed) {
  FaultConfig f;
  f.seed = seed;
  f.mcv_breakdown_prob = 0.3;
  f.travel_jitter = 0.15;
  f.charge_jitter = 0.1;
  f.sensor_death_prob = 0.001;
  f.dispatch_delay_prob = 0.25;
  f.dispatch_delay_max_s = 1800.0;
  return f;
}

const char* policy_name(core::RecoveryPolicy p) {
  switch (p) {
    case core::RecoveryPolicy::kDefer: return "defer";
    case core::RecoveryPolicy::kGraft: return "graft";
    case core::RecoveryPolicy::kReplan: return "replan";
  }
  return "?";
}

constexpr core::RecoveryPolicy kPolicies[] = {core::RecoveryPolicy::kDefer,
                                              core::RecoveryPolicy::kGraft,
                                              core::RecoveryPolicy::kReplan};

TEST(SimFaults, ByteIdenticalAcrossJobsBackendsAndSeeds) {
  const auto instance = hot_instance(91, 250, 3.0);
  core::ApproScheduler appro;
  std::vector<SimConfig> configs;
  std::vector<std::string> tags;
  for (const std::uint64_t fault_seed : {1ULL, 42ULL}) {
    for (const core::RecoveryPolicy policy : kPolicies) {
      SimConfig config;
      config.monitoring_period_s = 45.0 * 86400.0;
      config.record_rounds = true;
      config.faults = harsh_faults(fault_seed);
      config.recovery = policy;
      configs.push_back(config);
      tags.push_back(std::string(policy_name(policy)) + " seed=" +
                     std::to_string(fault_seed));
    }
  }

  // Reference: one simulation at a time, scalar kernels.
  std::vector<SimResult> reference;
  {
    BackendGuard guard(simd::Backend::kScalar);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      reference.push_back(simulate(instance, appro, configs[i]));
      ASSERT_GT(reference.back().rounds, 0u);
      ASSERT_GT(reference.back().mcv_breakdowns, 0u);
      ASSERT_EQ(reference.back().verify_violations, 0u) << tags[i];
    }
  }

  // The same simulations as concurrent sweep items.
  for (simd::Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      std::vector<SimResult> got(configs.size());
      parallel_for(
          configs.size(),
          [&](std::size_t i) {
            got[i] = simulate(instance, appro, configs[i]);
          },
          jobs);
      for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(tags[i] + " jobs=" + std::to_string(jobs) +
                     " backend=" + simd::backend_name(b));
        expect_results_identical(reference[i], got[i]);
      }
    }
  }
}

TEST(SimFaults, ZeroRateFaultConfigIsByteIdenticalToFaultFree) {
  const auto instance = hot_instance(92, 200, 3.0);
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 45.0 * 86400.0;
  config.record_rounds = true;
  const SimResult plain = simulate(instance, appro, config);

  // Same config with the fault layer "on" but every rate at zero — must
  // take the identical code path, including the executor's fast path.
  SimConfig zeroed = config;
  zeroed.faults.seed = 0xdeadbeef;  // seed alone must change nothing
  zeroed.recovery = core::RecoveryPolicy::kReplan;
  const SimResult got = simulate(instance, appro, zeroed);
  expect_results_identical(plain, got);
  EXPECT_NE(got.truncated_reason, TruncationReason::kMaxRounds);
  EXPECT_EQ(got.mcv_breakdowns, 0u);
  EXPECT_EQ(got.sensors_failed, 0u);
  EXPECT_BITS_EQ(got.extra_recovery_delay_s, 0.0);
}

TEST(SimFaults, VerifierCleanUpToHalfBreakdownRateAllPolicies) {
  const auto instance = hot_instance(93, 150, 3.0);
  core::ApproScheduler appro;
  for (const double rate : {0.25, 0.5}) {
    for (const core::RecoveryPolicy policy : kPolicies) {
      SimConfig config;
      config.monitoring_period_s = 30.0 * 86400.0;
      config.faults = harsh_faults(7);
      config.faults.mcv_breakdown_prob = rate;
      config.recovery = policy;
      const SimResult result = simulate(instance, appro, config);
      SCOPED_TRACE(std::string(policy_name(policy)) + " rate=" +
                   std::to_string(rate));
      EXPECT_EQ(result.verify_violations, 0u);
      EXPECT_GT(result.rounds, 0u);
      EXPECT_GT(result.mcv_breakdowns, 0u);
      if (policy == core::RecoveryPolicy::kDefer) {
        EXPECT_EQ(result.recovered_sensors, 0u);
      }
    }
  }
}

TEST(SimFaults, RecoveryPoliciesRescueOrphans) {
  const auto instance = hot_instance(94, 150, 3.0);
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 30.0 * 86400.0;
  config.faults = harsh_faults(11);
  config.faults.mcv_breakdown_prob = 0.4;

  config.recovery = core::RecoveryPolicy::kDefer;
  const SimResult defer = simulate(instance, appro, config);
  config.recovery = core::RecoveryPolicy::kGraft;
  const SimResult graft = simulate(instance, appro, config);
  config.recovery = core::RecoveryPolicy::kReplan;
  const SimResult replan = simulate(instance, appro, config);

  ASSERT_GT(defer.deferred_sensors, 0u);
  EXPECT_GT(graft.recovered_sensors, 0u);
  EXPECT_GT(replan.recovered_sensors, 0u);
  // Recovery costs delay; the stat must record it.
  EXPECT_GT(graft.extra_recovery_delay_s, 0.0);
  EXPECT_GT(replan.extra_recovery_delay_s, 0.0);
}

TEST(SimFaults, SensorDeathIsAccountedAndHarmless) {
  const auto instance = hot_instance(95, 200, 3.0);
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 45.0 * 86400.0;
  config.faults.seed = 3;
  config.faults.sensor_death_prob = 0.01;
  const SimResult result = simulate(instance, appro, config);
  EXPECT_GT(result.sensors_failed, 0u);
  EXPECT_LE(result.sensors_failed, instance.num_sensors());
  EXPECT_EQ(result.verify_violations, 0u);
  EXPECT_GT(result.rounds, 0u);
}

TEST(Truncation, MaxRoundsSetsFlagAndReason) {
  const auto instance = hot_instance(96, 120, 3.0);
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 60.0 * 86400.0;
  config.max_rounds = 3;  // far fewer than the load demands
  const SimResult result = simulate(instance, appro, config);
  EXPECT_EQ(result.rounds, 3u);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.truncated_reason, TruncationReason::kMaxRounds);
}

TEST(Truncation, HorizonMidRoundMatchesRoundLog) {
  // Self-consistency: the flag is set iff some round was still out when
  // the period ended (and the run was not cut by max_rounds).
  const auto instance = hot_instance(97, 150, 5.0);
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 20.0 * 86400.0;
  config.record_rounds = true;
  const SimResult result = simulate(instance, appro, config);
  ASSERT_GT(result.rounds, 0u);
  bool any_censored = false;
  for (const RoundLog& log : result.rounds_log) {
    if (log.longest_delay_s > 0.0 &&
        log.dispatch_time + log.longest_delay_s >
            config.monitoring_period_s) {
      any_censored = true;
    }
  }
  EXPECT_EQ(result.truncated, any_censored);
  EXPECT_EQ(result.truncated_reason, any_censored
                                         ? TruncationReason::kHorizonMidRound
                                         : TruncationReason::kNone);
}

TEST(Truncation, CleanRunIsNotTruncated) {
  // Build a horizon that provably ends between two rounds: run long once
  // to learn the round times, then cut the period midway through the idle
  // stretch after round 0. That run has exactly one round, fully inside
  // the horizon — truncated must stay false.
  const auto instance = hot_instance(98, 100, 1.0);
  core::ApproScheduler appro;
  SimConfig probe;
  probe.monitoring_period_s = 60.0 * 86400.0;
  // Epoch dispatch guarantees idle stretches: each round is far shorter
  // than the epoch between dispatches (on-demand keeps the fleet
  // continuously busy on this instance, leaving no gap to cut in).
  probe.dispatch_epoch_s = 10.0 * 86400.0;
  probe.record_rounds = true;
  const SimResult scout = simulate(instance, appro, probe);
  ASSERT_GE(scout.rounds, 2u);
  double cut = -1.0;
  std::size_t rounds_before = 0;
  for (std::size_t i = 0; i + 1 < scout.rounds_log.size(); ++i) {
    const double done = scout.rounds_log[i].dispatch_time +
                        scout.rounds_log[i].longest_delay_s;
    const double next = scout.rounds_log[i + 1].dispatch_time;
    if (done < next) {
      cut = 0.5 * (done + next);
      rounds_before = i + 1;
      break;
    }
  }
  ASSERT_GT(cut, 0.0) << "no idle stretch even under epoch dispatch";

  SimConfig config;
  config.dispatch_epoch_s = probe.dispatch_epoch_s;
  config.monitoring_period_s = cut;
  const SimResult result = simulate(instance, appro, config);
  EXPECT_EQ(result.rounds, rounds_before);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.truncated_reason, TruncationReason::kNone);
}

// ---------- MCV energy budget ----------

// Meters the fleet's actual draw with an effectively-unlimited (but
// enabled) budget, so tests can derive a deterministically-tight capacity
// from the instance itself instead of hard-coding joules.
double mean_mcv_round_energy(const model::WrsnInstance& instance,
                             const sched::Scheduler& scheduler,
                             SimConfig config) {
  config.mcv_budget.capacity_j = 1e18;
  const SimResult metered = simulate(instance, scheduler, config);
  EXPECT_GT(metered.rounds, 0u);
  EXPECT_EQ(metered.mcv_energy_exhausted, 0u);
  EXPECT_GT(metered.mcv_energy_spent_j, 0.0);
  return metered.mcv_energy_spent_j /
         (static_cast<double>(metered.rounds) *
          static_cast<double>(instance.config.num_chargers));
}

TEST(SimEnergy, DisabledBudgetSpecIsByteIdenticalToBaseline) {
  const auto instance = hot_instance(120, 200, 3.0);
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 45.0 * 86400.0;
  config.record_rounds = true;
  const SimResult plain = simulate(instance, appro, config);

  // Budget "configured" but disabled (capacity 0): the recovery policy it
  // would route aborts through must be inert and the whole run
  // byte-identical to the baseline.
  SimConfig budgeted = config;
  budgeted.mcv_budget.capacity_j = 0.0;
  budgeted.recovery = core::RecoveryPolicy::kReplan;
  const SimResult got = simulate(instance, appro, budgeted);
  expect_results_identical(plain, got);
  EXPECT_EQ(got.mcv_energy_exhausted, 0u);
  EXPECT_BITS_EQ(got.mcv_energy_spent_j, 0.0);
}

TEST(SimEnergy, TightBudgetAbortsAreAccountedAndVerifierClean) {
  const auto instance = hot_instance(121, 200, 3.0);
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 45.0 * 86400.0;
  config.record_rounds = true;
  const double mean_j = mean_mcv_round_energy(instance, appro, config);

  for (const core::RecoveryPolicy policy : kPolicies) {
    SimConfig tight = config;
    tight.recovery = policy;
    tight.mcv_budget.capacity_j = 0.5 * mean_j;
    const SimResult result = simulate(instance, appro, tight);
    SCOPED_TRACE(policy_name(policy));
    EXPECT_EQ(result.verify_violations, 0u);
    EXPECT_GT(result.rounds, 0u);
    EXPECT_GT(result.mcv_energy_exhausted, 0u);
    EXPECT_GE(result.mcv_breakdowns, result.mcv_energy_exhausted);
    EXPECT_NE(result.truncated_reason, TruncationReason::kMaxRounds);

    // The per-round log must re-sum to the aggregates, bit for bit, and
    // the logged delays must reproduce the running-stats extremum.
    std::size_t aborts = 0;
    double spent_j = 0.0;
    double worst_delay = 0.0;
    for (const RoundLog& log : result.rounds_log) {
      aborts += log.energy_aborts;
      spent_j += log.energy_spent_j;
      worst_delay = std::max(worst_delay, log.longest_delay_s);
    }
    EXPECT_EQ(aborts, result.mcv_energy_exhausted);
    EXPECT_BITS_EQ(spent_j, result.mcv_energy_spent_j);
    EXPECT_BITS_EQ(worst_delay, result.round_longest_delay_s.max());
  }
}

TEST(SimEnergy, RecordedTourDrawsMatchAggregatesExactly) {
  const auto instance = hot_instance(125, 200, 3.0);
  const std::size_t k = instance.config.num_chargers;
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 45.0 * 86400.0;
  config.record_rounds = true;
  config.mcv_budget.capacity_j = 1e15;  // metering: nothing aborts
  const SimResult off = simulate(instance, appro, config);
  EXPECT_TRUE(off.mcv_tour_energy_j.empty());  // opt-in only

  SimConfig recording = config;
  recording.record_tour_energy = true;
  const SimResult on = simulate(instance, appro, recording);
  // Recording is pure observation: every aggregate stays bit-identical.
  expect_results_identical(off, on);

  // One draw per MCV per executed round, in round-major order, and the
  // per-round flat sums/maxima must reproduce the RoundLog entries bit
  // for bit (simulation.cpp folds the same values in the same order).
  const auto& draws = on.mcv_tour_energy_j;
  ASSERT_EQ(draws.size(), on.rounds_log.size() * k);
  double global_max = 0.0;
  for (std::size_t r = 0; r < on.rounds_log.size(); ++r) {
    double round_sum = 0.0;
    double round_max = 0.0;
    for (std::size_t m = 0; m < k; ++m) {
      const double d = draws[r * k + m];
      EXPECT_GE(d, 0.0);
      round_sum += d;
      round_max = std::max(round_max, d);
    }
    EXPECT_BITS_EQ(round_sum, on.rounds_log[r].energy_spent_j);
    EXPECT_BITS_EQ(round_max, on.rounds_log[r].energy_max_tour_j);
    global_max = std::max(global_max, round_max);
  }
  EXPECT_BITS_EQ(global_max, on.mcv_energy_max_tour_j);
}

TEST(SimEnergy, BudgetedRunsBitIdenticalAcrossJobsBackendsAndPolicies) {
  const auto instance = hot_instance(122, 250, 3.0);
  core::ApproScheduler appro;
  SimConfig base;
  base.monitoring_period_s = 45.0 * 86400.0;
  base.record_rounds = true;
  const double mean_j = mean_mcv_round_energy(instance, appro, base);

  std::vector<SimConfig> configs;
  for (const core::RecoveryPolicy policy : kPolicies) {
    SimConfig config = base;
    config.recovery = policy;
    config.mcv_budget.capacity_j = 0.6 * mean_j;
    // Budget on top of the full fault soup: exhaustion and coin-flip
    // breakdowns must coexist deterministically.
    config.faults = harsh_faults(5);
    configs.push_back(config);
  }

  // Reference: one simulation at a time, scalar kernels.
  std::vector<SimResult> reference;
  {
    BackendGuard guard(simd::Backend::kScalar);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      reference.push_back(simulate(instance, appro, configs[i]));
      ASSERT_GT(reference.back().rounds, 0u);
      ASSERT_GT(reference.back().mcv_energy_exhausted, 0u)
          << policy_name(kPolicies[i]);
      ASSERT_EQ(reference.back().verify_violations, 0u)
          << policy_name(kPolicies[i]);
    }
  }

  // The same simulations as concurrent sweep items.
  for (simd::Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      std::vector<SimResult> got(configs.size());
      parallel_for(
          configs.size(),
          [&](std::size_t i) {
            got[i] = simulate(instance, appro, configs[i]);
          },
          jobs);
      for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(std::string(policy_name(kPolicies[i])) + " jobs=" +
                     std::to_string(jobs) + " backend=" +
                     simd::backend_name(b));
        expect_results_identical(reference[i], got[i]);
      }
    }
  }
}

// recover_round-level property: for random problems under a tight budget
// (with and without coin-flip breakdowns mixed in), every policy yields a
// verifier-clean outcome whose reported longest charge delay equals an
// independent recomputation from the raw per-MCV return times, exhaustion
// aborts are cause-tagged, and no MCV ever outspends its battery.
TEST(SimEnergy, RecoverRoundDelayAndEnergyAccountsAreConsistent) {
  std::size_t total_energy_aborts = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial) * 77 + 2000);
    const std::size_t n = 30 + rng.below(80);
    const std::size_t k = 1 + rng.below(3);
    std::vector<geom::Point> pts;
    std::vector<double> deficits;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
      deficits.push_back(rng.uniform(500.0, 3000.0));
    }
    model::ChargingProblem problem(std::move(pts), std::move(deficits),
                                   {50, 50}, 2.7, 1.0, k);

    energy::McvBudgetSpec spec;
    spec.capacity_j = 1e18;
    const sched::ChargingPlan plan = core::ApproScheduler().plan(problem);

    // Calibrate the tight capacity off the fault-free metered execution.
    sched::ExecutionFaults meter;
    meter.budget = spec;
    const auto metered = sched::execute_plan(problem, plan, meter);
    double max_spent = 0.0;
    for (const auto& m : metered.mcvs) {
      max_spent = std::max(max_spent, m.energy_spent_j);
    }
    ASSERT_GT(max_spent, 0.0);

    sched::ExecutionFaults bundle;
    bundle.budget = spec;
    bundle.budget.capacity_j = 0.6 * max_spent;
    if (trial % 2 == 1) {
      bundle.breakdown_after.assign(k, sched::ExecutionFaults::kNoBreakdown);
      bundle.breakdown_after[rng.below(static_cast<std::uint32_t>(k))] =
          rng.below(4);
    }

    for (const core::RecoveryPolicy policy : kPolicies) {
      SCOPED_TRACE(std::string(policy_name(policy)) + " trial=" +
                   std::to_string(trial));
      const core::RecoveryOutcome outcome =
          core::recover_round(problem, plan, bundle, policy);

      sched::VerifyOptions vo;
      vo.require_full_coverage = false;
      vo.allow_partial = true;
      vo.faults = &bundle;
      const auto violations =
          sched::verify_schedule(problem, outcome.primary, vo);
      EXPECT_TRUE(violations.empty())
          << violations.size() << " violations, first: "
          << (violations.empty() ? "" : violations.front());
      if (outcome.has_recovery) {
        const auto recovery_violations = sched::verify_schedule(
            outcome.replan.subproblem, outcome.recovery);
        EXPECT_TRUE(recovery_violations.empty())
            << (recovery_violations.empty() ? ""
                                            : recovery_violations.front());
      }

      double worst = 0.0;
      for (const auto& m : outcome.primary.mcvs) {
        worst = std::max(worst, m.return_time);
      }
      if (outcome.has_recovery) {
        double recovery_worst = 0.0;
        for (const auto& m : outcome.recovery.mcvs) {
          recovery_worst = std::max(recovery_worst, m.return_time);
        }
        worst = std::max(worst, outcome.recovery_offset_s + recovery_worst);
      }
      EXPECT_BITS_EQ(worst, outcome.longest_delay());

      for (const auto& m : outcome.primary.mcvs) {
        EXPECT_LE(m.energy_spent_j, bundle.budget.capacity_j);
        if (m.abort_cause == sched::BreakdownCause::kEnergyExhausted) {
          EXPECT_TRUE(m.aborted);
          ++total_energy_aborts;
        }
      }
    }
  }
  // The calibrated capacities must actually bite somewhere in the sweep.
  EXPECT_GT(total_energy_aborts, 0u);
}

// ---------- structured input validation ----------

TEST(Validation, AcceptsDefaultsAndEmptyNetwork) {
  Rng rng(1);
  const auto instance = model::make_instance(model::NetworkConfig{}, 20, rng);
  EXPECT_FALSE(validate_sim_inputs(instance, SimConfig{}).has_value());
  model::WrsnInstance empty;
  EXPECT_FALSE(validate_sim_inputs(empty, SimConfig{}).has_value());
}

TEST(Validation, RejectsBadConfigsWithTheRightCode) {
  Rng rng(2);
  const auto instance = model::make_instance(model::NetworkConfig{}, 10, rng);

  SimConfig config;
  config.monitoring_period_s = 0.0;
  auto err = validate_sim_inputs(instance, config);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadHorizon);

  config = SimConfig{};
  config.faults.travel_jitter = 1.5;  // legs could go negative
  err = validate_sim_inputs(instance, config);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadFaultConfig);

  config = SimConfig{};
  config.faults.mcv_breakdown_prob = -0.1;
  err = validate_sim_inputs(instance, config);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadFaultConfig);

  auto broken = instance;
  broken.config.mcv_speed = 0.0;
  err = validate_sim_inputs(broken, SimConfig{});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadSpeed);

  broken = instance;
  broken.config.num_chargers = 0;
  err = validate_sim_inputs(broken, SimConfig{});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kEmptyFleet);

  broken = instance;
  broken.config.rate_max_bps = -5e3;  // below rate_min_bps
  err = validate_sim_inputs(broken, SimConfig{});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadDataRate);

  broken = instance;
  broken.positions[3].x = std::numeric_limits<double>::quiet_NaN();
  err = validate_sim_inputs(broken, SimConfig{});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kNonFiniteSensorData);

  broken = instance;
  broken.consumption_w[1] = -1.0;
  err = validate_sim_inputs(broken, SimConfig{});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kNonFiniteSensorData);
}

TEST(Validation, RejectsHorizonBeyondHundredYears) {
  // simulate() allocates one dead-time bucket per 30 days of the horizon
  // before its loop starts, so an absurd horizon must be rejected up
  // front rather than abort on the allocation.
  Rng rng(7);
  const auto instance = model::make_instance(model::NetworkConfig{}, 10, rng);
  const double cap_s = 100.0 * 365.25 * 86400.0;

  SimConfig config;
  config.monitoring_period_s = cap_s;
  EXPECT_FALSE(validate_sim_inputs(instance, config).has_value());

  for (const double horizon_s :
       {std::nextafter(cap_s, std::numeric_limits<double>::infinity()),
        1e13 * 30.0 * 86400.0, std::numeric_limits<double>::max()}) {
    config.monitoring_period_s = horizon_s;
    const auto err = validate_sim_inputs(instance, config);
    ASSERT_TRUE(err.has_value()) << horizon_s;
    EXPECT_EQ(err->code, ConfigErrorCode::kBadHorizon);
    EXPECT_NE(err->message.find("at most 100 years"), std::string::npos)
        << err->message;
  }
}

TEST(Validation, RejectsMismatchedPerSensorArrays) {
  // Three positions but one consumption entry: the validator must not
  // read past the consumption array (nor let simulate() do so).
  Rng rng(6);
  auto instance = model::make_instance(model::NetworkConfig{}, 3, rng);
  instance.consumption_w.resize(1);
  const auto err = validate_sim_inputs(instance, SimConfig{});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kNonFiniteSensorData);
  EXPECT_NE(err->message.find("consumption_w"), std::string::npos)
      << err->message;
}

TEST(Validation, RejectsZeroOrNegativeSensorCapacity) {
  // A zero-capacity battery is permanently empty — the simulator must
  // therefore never accept one (a "charged" sensor would still read
  // empty).
  Rng rng(4);
  const auto instance = model::make_instance(model::NetworkConfig{}, 10, rng);

  auto broken = instance;
  broken.config.battery_capacity_j = 0.0;
  auto err = validate_sim_inputs(broken, SimConfig{});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadCapacity);

  broken.config.battery_capacity_j = -10.0;
  err = validate_sim_inputs(broken, SimConfig{});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadCapacity);

  broken.config.battery_capacity_j = std::numeric_limits<double>::quiet_NaN();
  err = validate_sim_inputs(broken, SimConfig{});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadCapacity);
}

TEST(Validation, RejectsBadMcvBudgets) {
  Rng rng(5);
  const auto instance = model::make_instance(model::NetworkConfig{}, 10, rng);

  SimConfig config;
  config.mcv_budget.capacity_j = -1.0;
  auto err = validate_sim_inputs(instance, config);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadMcvBudget);

  config = SimConfig{};
  config.mcv_budget.capacity_j = std::numeric_limits<double>::infinity();
  err = validate_sim_inputs(instance, config);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadMcvBudget);

  config = SimConfig{};
  config.mcv_budget.capacity_j = std::numeric_limits<double>::quiet_NaN();
  err = validate_sim_inputs(instance, config);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ConfigErrorCode::kBadMcvBudget);

  // A well-formed enabled budget passes.
  config = SimConfig{};
  config.mcv_budget.capacity_j = 5e5;
  EXPECT_FALSE(validate_sim_inputs(instance, config).has_value());
}

TEST(Validation, HalvesCheckNetworkAndSettingsAlone) {
  // validate_network gates make_instance, whose rate_min <= rate_max
  // assert a bad or NaN data rate would otherwise trip.
  model::NetworkConfig net;
  EXPECT_FALSE(validate_network(net).has_value());
  for (const double bmax : {-5e3, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    net.rate_max_bps = bmax;
    const auto err = validate_network(net);
    ASSERT_TRUE(err.has_value()) << bmax;
    EXPECT_EQ(err->code, ConfigErrorCode::kBadDataRate);
  }
  net = model::NetworkConfig{};
  net.depot.x = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(validate_network(net).has_value());
  EXPECT_EQ(validate_network(net)->code, ConfigErrorCode::kNonFiniteSensorData);

  // validate_sim_config needs no instance: the figure benches check their
  // sweep settings once, before any worker runs.
  SimConfig config;
  EXPECT_FALSE(validate_sim_config(config).has_value());
  config.monitoring_period_s = -30.0 * 86400.0;
  ASSERT_TRUE(validate_sim_config(config).has_value());
  EXPECT_EQ(validate_sim_config(config)->code, ConfigErrorCode::kBadHorizon);
  config = SimConfig{};
  config.mcv_budget.capacity_j = -1.0;
  ASSERT_TRUE(validate_sim_config(config).has_value());
  EXPECT_EQ(validate_sim_config(config)->code, ConfigErrorCode::kBadMcvBudget);
}

TEST(Validation, ValidatorGatesSimulate) {
  // The front-door pattern of the CLIs: validate, report the structured
  // error instead of reaching simulate()'s assert, simulate otherwise.
  Rng rng(3);
  const auto instance = model::make_instance(model::NetworkConfig{}, 15, rng);
  core::ApproScheduler appro;

  SimConfig bad;
  bad.monitoring_period_s = -86400.0;
  const auto failed = validate_sim_inputs(instance, bad);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->code, ConfigErrorCode::kBadHorizon);
  EXPECT_FALSE(failed->message.empty());

  SimConfig good;
  good.monitoring_period_s = 10.0 * 86400.0;
  ASSERT_FALSE(validate_sim_inputs(instance, good).has_value());
  EXPECT_EQ(simulate(instance, appro, good).verify_violations, 0u);
}

}  // namespace
}  // namespace mcharge::sim
