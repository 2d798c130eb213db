// Tests for mid-round fleet-state reconstruction and replanning, plus the
// start-position plumbing in the executor/verifier it relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/appro.h"
#include "core/replan.h"
#include "geometry/field.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "util/rng.h"

#include "offset_clusters.h"
#include "problem_compare.h"

namespace mcharge::core {
namespace {

using model::ChargingProblem;

ChargingProblem random_problem(std::size_t n, std::size_t k, Rng& rng) {
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(500.0, 3000.0));
  }
  return ChargingProblem(std::move(pts), std::move(deficits), {50, 50}, 2.7,
                         1.0, k);
}

// ---------- start-position execution ----------

TEST(StartPositions, FirstLegUsesPlanStart) {
  ChargingProblem p({{10.0, 0.0}}, {100.0}, {0, 0}, 2.7, 1.0, 1);
  sched::ChargingPlan plan;
  plan.tours = {{0}};
  plan.starts = {{7.0, 4.0}};  // 5 m from the sensor instead of 10
  const auto schedule = sched::execute_plan(p, plan);
  ASSERT_EQ(schedule.mcvs[0].sojourns.size(), 1u);
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].sojourns[0].arrival, 5.0);
  // Return is still to the depot (10 m back).
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].return_time, 5.0 + 100.0 + 10.0);
  EXPECT_TRUE(sched::verify_schedule(p, schedule).empty());
}

TEST(StartPositions, DefaultIsDepot) {
  ChargingProblem p({{10.0, 0.0}}, {100.0}, {0, 0}, 2.7, 1.0, 1);
  sched::ChargingPlan plan;
  plan.tours = {{0}};
  const auto schedule = sched::execute_plan(p, plan);
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].sojourns[0].arrival, 10.0);
  ASSERT_EQ(schedule.starts.size(), 1u);
  EXPECT_EQ(schedule.starts[0], p.depot());
}

// ---------- fleet_state_at ----------

TEST(FleetState, InterpolatesAlongLegsAndParksAtStops) {
  // One MCV: depot (0,0) -> sensor at (10,0), charge 100 s, return.
  ChargingProblem p({{10.0, 0.0}}, {100.0}, {0, 0}, 2.7, 1.0, 1);
  sched::ChargingPlan plan;
  plan.tours = {{0}};
  const auto schedule = sched::execute_plan(p, plan);

  auto pos = [&](double t) { return fleet_state_at(p, schedule, t).mcv_positions[0]; };
  EXPECT_NEAR(pos(0.0).x, 0.0, 1e-9);
  EXPECT_NEAR(pos(5.0).x, 5.0, 1e-9);     // halfway out
  EXPECT_NEAR(pos(10.0).x, 10.0, 1e-9);   // arrived
  EXPECT_NEAR(pos(60.0).x, 10.0, 1e-9);   // parked, charging
  EXPECT_NEAR(pos(115.0).x, 5.0, 1e-9);   // halfway home (departed at 110)
  EXPECT_NEAR(pos(120.0).x, 0.0, 1e-9);   // home
  EXPECT_NEAR(pos(999.0).x, 0.0, 1e-9);   // stays home
}

TEST(FleetState, ChargedSetGrowsWithTime) {
  ChargingProblem p({{10, 0}, {40, 0}}, {100.0, 100.0}, {0, 0}, 2.7, 1.0, 1);
  sched::ChargingPlan plan;
  plan.tours = {{0, 1}};
  const auto schedule = sched::execute_plan(p, plan);
  EXPECT_EQ(fleet_state_at(p, schedule, 0.0).num_charged(), 0u);
  // Sensor 0 done at 110; sensor 1 done at 110 + 30 + 100 = 240.
  EXPECT_EQ(fleet_state_at(p, schedule, 115.0).num_charged(), 1u);
  EXPECT_EQ(fleet_state_at(p, schedule, 241.0).num_charged(), 2u);
}

TEST(FleetState, IdleMcvStaysAtStart) {
  ChargingProblem p({{10, 0}}, {100.0}, {0, 0}, 2.7, 1.0, 2);
  sched::ChargingPlan plan;
  plan.tours = {{0}, {}};
  const auto schedule = sched::execute_plan(p, plan);
  const auto state = fleet_state_at(p, schedule, 50.0);
  EXPECT_EQ(state.mcv_positions[1], p.depot());
}

TEST(FleetState, AbortedMcvStaysAtItsLastStop) {
  // MCV 0 breaks down after its first stop (80,0): it finishes charging
  // at 80 + 100 = 180 s and stays there. MCV 1 breaks down at dispatch
  // and stays at its start.
  ChargingProblem p({{80, 0}, {90, 0}, {30, 0}}, {100.0, 100.0, 100.0},
                    {0, 0}, 2.7, 1.0, 2);
  sched::ChargingPlan plan;
  plan.tours = {{0, 1}, {2}};
  plan.starts = {{0, 0}, {30, 5}};
  sched::ExecutionFaults faults;
  faults.breakdown_after = {1, 0};
  const auto schedule = sched::execute_plan(p, plan, faults);
  ASSERT_TRUE(schedule.mcvs[0].aborted);
  ASSERT_TRUE(schedule.mcvs[1].aborted);
  for (double t : {180.0, 181.0, 1e6}) {
    const auto state = fleet_state_at(p, schedule, t);
    EXPECT_EQ(state.mcv_positions[0], (geom::Point{80, 0})) << "t = " << t;
    EXPECT_EQ(state.mcv_positions[1], (geom::Point{30, 5})) << "t = " << t;
  }
}

// ---------- replanning ----------

TEST(Replan, EmptyWhenEverythingCharged) {
  Rng rng(1);
  const auto p = random_problem(30, 2, rng);
  ApproScheduler appro;
  const auto schedule = sched::execute_plan(p, appro.plan(p));
  const auto state = fleet_state_at(p, schedule, 1e12);
  EXPECT_EQ(state.num_charged(), 30u);
  const auto replan = replan_from(p, state);
  EXPECT_EQ(replan.subproblem.size(), 0u);
  EXPECT_EQ(replan.plan.total_stops(), 0u);
}

class ReplanProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReplanProperty, MidRoundReplanIsFeasibleAndComplete) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 457 + 11);
  const std::size_t n = 40 + rng.below(120);
  const std::size_t k = 1 + rng.below(3);
  const auto p = random_problem(n, k, rng);
  ApproScheduler appro;
  const auto schedule = sched::execute_plan(p, appro.plan(p));

  // Interrupt somewhere in the middle of the round.
  const double t = rng.uniform(0.1, 0.9) * schedule.longest_delay();
  const auto state = fleet_state_at(p, schedule, t);
  const auto replan = replan_from(p, state);

  ASSERT_EQ(replan.subproblem.size() + state.num_charged(), n);
  ASSERT_EQ(replan.plan.starts.size(), k);
  const auto new_schedule =
      sched::execute_plan(replan.subproblem, replan.plan);
  EXPECT_TRUE(new_schedule.all_charged());
  const auto violations =
      sched::verify_schedule(replan.subproblem, new_schedule);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplanProperty, ::testing::Range(0, 12));

TEST(Replan, OriginalIndexMapsBack) {
  Rng rng(5);
  const auto p = random_problem(50, 2, rng);
  ApproScheduler appro;
  const auto schedule = sched::execute_plan(p, appro.plan(p));
  const double t = 0.3 * schedule.longest_delay();
  const auto state = fleet_state_at(p, schedule, t);
  const auto replan = replan_from(p, state);
  for (std::size_t i = 0; i < replan.subproblem.size(); ++i) {
    const std::uint32_t orig = replan.original_index[i];
    EXPECT_FALSE(state.charged[orig]);
    EXPECT_EQ(replan.subproblem.position(static_cast<std::uint32_t>(i)).x,
              p.position(orig).x);
    EXPECT_DOUBLE_EQ(
        replan.subproblem.charge_seconds(static_cast<std::uint32_t>(i)),
        p.charge_seconds(orig));
  }
}

TEST(Replan, SubproblemViewEqualsGridBuiltProblem) {
  // The recovery sub-problem's coverage lists are the round problem's,
  // induced on the uncharged sensors: it must be the problem a fresh grid
  // query over those sensors builds. Dense clustered fields give long
  // coverage lists; charged sets range from none to all but one sensor.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(8800 + seed);
    const std::size_t n = 1 + rng.below(160);
    std::vector<geom::Point> pts =
        seed % 2 == 0
            ? testing_layouts::offset_clusters(n, 40.0, 40.0, 4, 4.0, rng)
            : geom::uniform_field(n, 30.0, 30.0, rng);
    std::vector<double> deficits;
    for (std::size_t i = 0; i < n; ++i) {
      deficits.push_back(rng.uniform(0.0, 3000.0));
    }
    const double gamma = seed % 5 == 0 ? 0.0 : 2.7;
    const ChargingProblem p(pts, deficits, {20, 20}, gamma, 5.0, 2);
    FleetState state;
    state.mcv_positions = {{0, 0}, {20, 20}};
    state.charged.assign(n, 0);
    const double charged_share = seed % 4 == 0 ? 0.0 : rng.uniform();
    for (std::size_t i = 1; i < n; ++i) {
      state.charged[i] = rng.uniform() < charged_share;
    }
    const auto replan = replan_from(p, state);
    std::vector<geom::Point> sub_pts;
    std::vector<double> sub_deficits;
    for (std::uint32_t v : replan.original_index) {
      sub_pts.push_back(pts[v]);
      sub_deficits.push_back(deficits[v]);
    }
    const ChargingProblem want(std::move(sub_pts), std::move(sub_deficits),
                               {20, 20}, gamma, 5.0, 2);
    EXPECT_TRUE(testing_problems::same_problem(replan.subproblem, want))
        << "seed=" << seed;
  }
}

TEST(Replan, StartsFromCurrentPositionsSavesTravel) {
  // MCV interrupted far from the depot: replanning from its position must
  // not charge more travel than a depot restart for the first leg.
  ChargingProblem p({{80, 0}, {90, 0}}, {100.0, 100.0}, {0, 0}, 2.7, 1.0, 1);
  sched::ChargingPlan plan;
  plan.tours = {{0, 1}};
  const auto schedule = sched::execute_plan(p, plan);
  // Interrupt right after sensor 0 finished (t = 80 + 100 = 180).
  const auto state = fleet_state_at(p, schedule, 181.0);
  ASSERT_EQ(state.num_charged(), 1u);
  const auto replan = replan_from(p, state);
  const auto new_schedule =
      sched::execute_plan(replan.subproblem, replan.plan);
  // First leg from ~(80,0) toward (90,0): ~10 m, not 90 m.
  ASSERT_FALSE(new_schedule.mcvs[0].sojourns.empty());
  EXPECT_LT(new_schedule.mcvs[0].sojourns[0].arrival, 15.0);
}

// ---------- failure-aware execution ----------

TEST(Faults, BreakdownAtDispatchAbortsBeforeFirstStop) {
  ChargingProblem p({{10, 0}, {40, 0}}, {100.0, 100.0}, {0, 0}, 2.7, 1.0, 1);
  sched::ChargingPlan plan;
  plan.tours = {{0, 1}};
  sched::ExecutionFaults faults;
  faults.breakdown_after = {0};
  const auto schedule = sched::execute_plan(p, plan, faults);
  ASSERT_TRUE(schedule.mcvs[0].aborted);
  EXPECT_TRUE(schedule.mcvs[0].sojourns.empty());
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].return_time, 0.0);
  EXPECT_EQ(schedule.mcvs[0].skipped, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(schedule.partial());
  EXPECT_EQ(schedule.num_aborted(), 1u);
  EXPECT_FALSE(schedule.all_charged());
  sched::VerifyOptions options;
  options.require_full_coverage = false;
  options.allow_partial = true;
  options.faults = &faults;
  const auto violations = sched::verify_schedule(p, schedule, options);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);
}

TEST(Faults, BreakdownBeforeLastStopKeepsCompletedPrefix) {
  ChargingProblem p({{10, 0}, {40, 0}, {70, 0}}, {100.0, 100.0, 100.0},
                    {0, 0}, 2.7, 1.0, 1);
  sched::ChargingPlan plan;
  plan.tours = {{0, 1, 2}};
  sched::ExecutionFaults faults;
  faults.breakdown_after = {2};  // fails after its second sojourn
  const auto schedule = sched::execute_plan(p, plan, faults);
  ASSERT_TRUE(schedule.mcvs[0].aborted);
  ASSERT_EQ(schedule.mcvs[0].sojourns.size(), 2u);
  // return_time is the moment execution stopped: the last finish, with no
  // depot leg (10 + 100 travel+charge at 0, then 30 + 100 at 1).
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].return_time, 240.0);
  EXPECT_EQ(schedule.mcvs[0].skipped, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(schedule.charged_at[2], sched::kNeverCharged);
  sched::VerifyOptions options;
  options.require_full_coverage = false;
  options.allow_partial = true;
  options.faults = &faults;
  EXPECT_TRUE(sched::verify_schedule(p, schedule, options).empty());
}

TEST(Faults, TravelAndChargeJitterRescaleTheTimeline) {
  ChargingProblem p({{10, 0}}, {100.0}, {0, 0}, 2.7, 1.0, 1);
  sched::ChargingPlan plan;
  plan.tours = {{0}};
  sched::ExecutionFaults faults;
  faults.travel_multiplier = [](std::uint32_t, std::size_t leg) {
    return leg == 0 ? 2.0 : 0.5;  // slow leg out, fast leg home
  };
  faults.charge_multiplier = [](std::uint32_t) { return 1.5; };
  const auto schedule = sched::execute_plan(p, plan, faults);
  ASSERT_EQ(schedule.mcvs[0].sojourns.size(), 1u);
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].sojourns[0].arrival, 20.0);
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].sojourns[0].finish, 20.0 + 150.0);
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].return_time, 170.0 + 5.0);
  EXPECT_FALSE(schedule.partial());
  sched::VerifyOptions options;
  options.faults = &faults;
  EXPECT_TRUE(sched::verify_schedule(p, schedule, options).empty());
  // The same execution verified WITHOUT the fault bundle must fail: the
  // checker really is re-deriving times through the multipliers.
  EXPECT_FALSE(sched::verify_schedule(p, schedule).empty());
}

TEST(Faults, EmptyBundleIsByteIdenticalToPlainExecution) {
  Rng rng(17);
  const auto p = random_problem(60, 2, rng);
  ApproScheduler appro;
  const auto plan = appro.plan(p);
  const auto plain = sched::execute_plan(p, plan);
  const auto with_faults = sched::execute_plan(p, plan, sched::ExecutionFaults{});
  ASSERT_EQ(plain.mcvs.size(), with_faults.mcvs.size());
  for (std::size_t k = 0; k < plain.mcvs.size(); ++k) {
    ASSERT_EQ(plain.mcvs[k].sojourns.size(),
              with_faults.mcvs[k].sojourns.size());
    for (std::size_t i = 0; i < plain.mcvs[k].sojourns.size(); ++i) {
      EXPECT_EQ(std::memcmp(&plain.mcvs[k].sojourns[i].arrival,
                            &with_faults.mcvs[k].sojourns[i].arrival,
                            sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&plain.mcvs[k].sojourns[i].finish,
                            &with_faults.mcvs[k].sojourns[i].finish,
                            sizeof(double)),
                0);
    }
    EXPECT_EQ(std::memcmp(&plain.mcvs[k].return_time,
                          &with_faults.mcvs[k].return_time, sizeof(double)),
              0);
  }
  EXPECT_EQ(plain.charged_at, with_faults.charged_at);
}

// ---------- recovery policies ----------

TEST(Recovery, NoBreakdownIsJustTheExecutedSchedule) {
  Rng rng(21);
  const auto p = random_problem(40, 2, rng);
  ApproScheduler appro;
  const auto plan = appro.plan(p);
  const auto outcome =
      recover_round(p, plan, sched::ExecutionFaults{}, RecoveryPolicy::kGraft);
  EXPECT_FALSE(outcome.has_recovery);
  EXPECT_EQ(outcome.stats.breakdowns, 0u);
  EXPECT_EQ(outcome.stats.orphaned_sensors, 0u);
  EXPECT_TRUE(outcome.primary.all_charged());
  EXPECT_DOUBLE_EQ(outcome.longest_delay(),
                   outcome.primary.longest_delay());
}

TEST(Recovery, AllMcvsFailedFallsBackToDefer) {
  Rng rng(22);
  const auto p = random_problem(40, 2, rng);
  ApproScheduler appro;
  const auto plan = appro.plan(p);
  sched::ExecutionFaults faults;
  faults.breakdown_after = {0, 0};  // the whole fleet dies at dispatch
  for (RecoveryPolicy policy :
       {RecoveryPolicy::kDefer, RecoveryPolicy::kGraft,
        RecoveryPolicy::kReplan}) {
    const auto outcome = recover_round(p, plan, faults, policy);
    EXPECT_FALSE(outcome.has_recovery);
    EXPECT_EQ(outcome.stats.breakdowns, 2u);
    EXPECT_EQ(outcome.stats.recovered_sensors, 0u);
    EXPECT_EQ(outcome.stats.deferred_sensors, outcome.stats.orphaned_sensors);
    EXPECT_GT(outcome.stats.orphaned_sensors, 0u);
    EXPECT_EQ(outcome.primary.num_aborted(), 2u);
  }
}

TEST(Recovery, GraftResumesSurvivorsFromBreakdownInstant) {
  // Hand-built line instance; every sensor is >= 30 m from the others, so
  // each stop charges only itself and no charging disks overlap.
  //   s0 = (10, 0)   deficit 100   MCV0's first stop
  //   s1 = (10, 40)  deficit  70   MCV0's second stop (orphaned)
  //   s2 = (40, 0)   deficit  10   MCV1's only stop
  ChargingProblem p({{10, 0}, {10, 40}, {40, 0}}, {100.0, 70.0, 10.0}, {0, 0},
                    2.7, 1.0, 2);
  sched::ChargingPlan plan;
  plan.tours = {{0, 1}, {2}};
  sched::ExecutionFaults faults;
  faults.breakdown_after = {1, sched::ExecutionFaults::kNoBreakdown};

  const auto outcome = recover_round(p, plan, faults, RecoveryPolicy::kGraft);

  // MCV0's history is untouched: depot -> s0 (10 s), charge 100 s, abort.
  const auto& victim = outcome.primary.mcvs[0];
  ASSERT_TRUE(victim.aborted);
  ASSERT_EQ(victim.sojourns.size(), 1u);
  EXPECT_NEAR(victim.sojourns[0].arrival, 10.0, 1e-9);
  EXPECT_NEAR(victim.sojourns[0].finish, 110.0, 1e-9);
  EXPECT_NEAR(victim.return_time, 110.0, 1e-9);  // = t1
  EXPECT_EQ(victim.skipped, (std::vector<std::uint32_t>{1}));

  // MCV1's own stop reads exactly as originally executed...
  const auto& survivor = outcome.primary.mcvs[1];
  ASSERT_FALSE(survivor.aborted);
  ASSERT_EQ(survivor.sojourns.size(), 2u);
  EXPECT_NEAR(survivor.sojourns[0].arrival, 40.0, 1e-9);
  EXPECT_NEAR(survivor.sojourns[0].finish, 50.0, 1e-9);
  // ...and then the grafted orphan. The base station learns of the
  // breakdown only at t1 = 110, so the survivor departs toward s1 at 110 —
  // not at its own finish (50), which would have it rescuing an orphan
  // before anyone knew there was one.
  const double t1 = 110.0;
  const double leg = p.travel(2, 1);  // (40,0) -> (10,40): 50 s
  EXPECT_EQ(survivor.sojourns[1].location, 1u);
  EXPECT_NEAR(survivor.sojourns[1].arrival, t1 + leg, 1e-9);
  EXPECT_NEAR(survivor.sojourns[1].start, t1 + leg, 1e-9);
  EXPECT_NEAR(survivor.sojourns[1].finish, t1 + leg + 70.0, 1e-9);
  EXPECT_NEAR(survivor.return_time, t1 + leg + 70.0 + p.travel_depot(1),
              1e-9);
  EXPECT_NEAR(outcome.primary.charged_at[1], t1 + leg + 70.0, 1e-9);

  // The merged schedule verifies like one uninterrupted execution.
  sched::VerifyOptions options;
  options.require_full_coverage = false;
  options.allow_partial = true;
  options.faults = &faults;
  const auto violations = sched::verify_schedule(p, outcome.primary, options);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);
}

TEST(Recovery, GraftWithJitterKeepsMergedLegIndexing) {
  // Same instance as above, with leg- and location-dependent jitter. The
  // grafted stop extends the survivor's tour, so its legs must draw fault
  // multipliers at the MERGED tour indices (s2->s1 is leg 1, the depot
  // return leg 2) — the verifier re-derives every leg that way and the
  // early-arrival check is one-sided, so a mis-indexed (faster) draw
  // surfaces as a violation.
  ChargingProblem p({{10, 0}, {10, 40}, {40, 0}}, {100.0, 70.0, 10.0}, {0, 0},
                    2.7, 1.0, 2);
  sched::ChargingPlan plan;
  plan.tours = {{0, 1}, {2}};
  sched::ExecutionFaults faults;
  faults.breakdown_after = {1, sched::ExecutionFaults::kNoBreakdown};
  faults.travel_multiplier = [](std::uint32_t mcv, std::size_t leg) {
    return 1.0 + 0.05 * static_cast<double>((mcv + 1) * (leg + 2));
  };
  faults.charge_multiplier = [](std::uint32_t loc) {
    return 1.0 + 0.1 * static_cast<double>(loc);
  };

  const auto outcome = recover_round(p, plan, faults, RecoveryPolicy::kGraft);
  sched::VerifyOptions options;
  options.require_full_coverage = false;
  options.allow_partial = true;
  options.faults = &faults;
  const auto violations = sched::verify_schedule(p, outcome.primary, options);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);

  // Causality holds in the jittered timeline too.
  const double t1 = outcome.primary.mcvs[0].return_time;
  const auto& survivor = outcome.primary.mcvs[1];
  ASSERT_EQ(survivor.sojourns.size(), 2u);
  EXPECT_EQ(survivor.sojourns[1].location, 1u);
  EXPECT_GE(survivor.sojourns[1].start, t1 - 1e-9);
  EXPECT_TRUE(outcome.primary.charged_at[1] !=
              sched::kNeverCharged);
}

class RecoveryProperty : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryProperty, GraftAndReplanVerifyCleanAndRescueOrphans) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 3);
  const std::size_t n = 40 + rng.below(80);
  const std::size_t k = 2 + rng.below(2);
  const auto p = random_problem(n, k, rng);
  ApproScheduler appro;
  const auto plan = appro.plan(p);

  // Break one MCV partway through its tour; leave the rest alive.
  sched::ExecutionFaults faults;
  faults.breakdown_after.assign(k, sched::ExecutionFaults::kNoBreakdown);
  const std::size_t victim = rng.below(k);
  const std::size_t tour_len = plan.tours[victim].size();
  if (tour_len == 0) GTEST_SKIP() << "victim drew an empty tour";
  faults.breakdown_after[victim] =
      static_cast<std::uint32_t>(rng.below(tour_len));

  const auto broken =
      recover_round(p, plan, faults, RecoveryPolicy::kDefer);
  for (RecoveryPolicy policy :
       {RecoveryPolicy::kGraft, RecoveryPolicy::kReplan}) {
    const auto outcome = recover_round(p, plan, faults, policy);
    SCOPED_TRACE(policy == RecoveryPolicy::kGraft ? "graft" : "replan");
    EXPECT_EQ(outcome.stats.breakdowns, 1u);
    // The primary (partial) schedule must verify under the fault bundle.
    sched::VerifyOptions options;
    options.require_full_coverage = false;
    options.allow_partial = true;
    options.faults = &faults;
    auto violations = sched::verify_schedule(p, outcome.primary, options);
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations[0]);
    // The recovery wave (if any) is a fault-free full schedule of its
    // sub-problem.
    if (outcome.has_recovery) {
      violations = sched::verify_schedule(outcome.replan.subproblem,
                                          outcome.recovery);
      EXPECT_TRUE(violations.empty())
          << (violations.empty() ? "" : violations[0]);
    }
    // Every orphan is either recovered this round or deferred; recovery
    // never loses sensors.
    EXPECT_EQ(outcome.stats.recovered_sensors + outcome.stats.deferred_sensors,
              outcome.stats.orphaned_sensors);
    // Rescuing orphans cannot beat the broken round's delay.
    EXPECT_GE(outcome.longest_delay(), broken.longest_delay() - 1e-9);
    EXPECT_GE(outcome.stats.extra_delay_s, 0.0);
    if (policy == RecoveryPolicy::kGraft) {
      // Causality: a grafted (previously orphaned) stop cannot begin
      // before the first breakdown was known, and the survivors' frozen
      // prefixes must read exactly as in the broken execution.
      double t1 = std::numeric_limits<double>::infinity();
      std::vector<char> orphan(n, 0);
      for (const auto& mcv : broken.primary.mcvs) {
        if (!mcv.aborted) continue;
        t1 = std::min(t1, mcv.return_time);
        for (std::uint32_t s : mcv.skipped) orphan[s] = 1;
      }
      for (std::size_t j = 0; j < outcome.primary.mcvs.size(); ++j) {
        const auto& mcv = outcome.primary.mcvs[j];
        std::size_t i = 0;
        for (const auto& s : mcv.sojourns) {
          if (orphan[s.location]) {
            EXPECT_GE(s.start, t1 - 1e-9);
          } else if (!mcv.aborted) {
            const auto& orig = broken.primary.mcvs[j].sojourns;
            ASSERT_LT(i, orig.size());
            if (orig[i].start <= t1) {
              EXPECT_DOUBLE_EQ(s.start, orig[i].start);
              EXPECT_DOUBLE_EQ(s.finish, orig[i].finish);
            }
            ++i;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace mcharge::core
