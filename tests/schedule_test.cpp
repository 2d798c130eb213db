// Tests for the schedule module: plan execution (multi-node with conflict
// waiting, one-to-one) and the independent verifier.
#include <gtest/gtest.h>

#include <cmath>

#include "estimate_oracle.h"
#include "model/charging_problem.h"
#include "schedule/execute.h"
#include "schedule/plan.h"
#include "schedule/verify.h"
#include "util/rng.h"

namespace mcharge::sched {
namespace {

using model::ChargingProblem;

// Layout helpers -----------------------------------------------------------

/// Three sensors on a line 2 m apart, gamma 2.7, depot at origin offset.
ChargingProblem line3(std::size_t chargers = 2) {
  return ChargingProblem({{10, 0}, {12, 0}, {14, 0}}, {100.0, 50.0, 200.0},
                         {0, 0}, 2.7, 1.0, chargers);
}

/// Two isolated sensors 60 m apart.
ChargingProblem far2(std::size_t chargers = 2) {
  return ChargingProblem({{20, 0}, {80, 0}}, {100.0, 300.0}, {50, 0}, 2.7,
                         1.0, chargers);
}

// Multi-node execution -----------------------------------------------------

TEST(ExecuteMultiNode, SingleStopChargesWholeDisk) {
  const auto p = line3(1);
  ChargingPlan plan;
  plan.mode = ChargeMode::kMultiNode;
  plan.tours = {{1}};  // parking at the middle sensor covers all three
  const auto schedule = execute_plan(p, plan);
  ASSERT_EQ(schedule.mcvs.size(), 1u);
  ASSERT_EQ(schedule.mcvs[0].sojourns.size(), 1u);
  const Sojourn& s = schedule.mcvs[0].sojourns[0];
  EXPECT_EQ(s.charged, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(s.arrival, 12.0);           // travel from (0,0) to (12,0)
  EXPECT_DOUBLE_EQ(s.duration(), 200.0);       // max deficit in the disk
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].return_time, 12.0 + 200.0 + 12.0);
  EXPECT_TRUE(schedule.all_charged());
  EXPECT_TRUE(verify_schedule(p, schedule).empty());
}

TEST(ExecuteMultiNode, SecondStopSkipsAlreadyCharged) {
  const auto p = line3(1);
  ChargingPlan plan;
  plan.tours = {{0, 2}};  // stop at 0 (covers 0,1), then 2 (covers 1,2)
  const auto schedule = execute_plan(p, plan);
  const auto& sojourns = schedule.mcvs[0].sojourns;
  ASSERT_EQ(sojourns.size(), 2u);
  EXPECT_EQ(sojourns[0].charged, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_DOUBLE_EQ(sojourns[0].duration(), 100.0);
  // Sensor 1 is already charged, so only 2 remains: tau' = 200.
  EXPECT_EQ(sojourns[1].charged, (std::vector<std::uint32_t>{2}));
  EXPECT_DOUBLE_EQ(sojourns[1].duration(), 200.0);
  EXPECT_TRUE(verify_schedule(p, schedule).empty());
}

TEST(ExecuteMultiNode, ConflictForcesWaiting) {
  // Two MCVs sent to locations 0 and 2 of the line: their disks share
  // sensor 1, so the second to arrive must wait for the first to finish.
  const auto p = line3(2);
  ChargingPlan plan;
  plan.tours = {{0}, {2}};
  const auto schedule = execute_plan(p, plan);
  EXPECT_TRUE(verify_schedule(p, schedule).empty());
  EXPECT_GT(schedule.total_wait(), 0.0);
  // MCV 0 arrives at x=10 at t=10 and charges until t=110; MCV 1 arrives
  // at x=14 at t=14 and must wait until 110.
  const Sojourn& s0 = schedule.mcvs[0].sojourns[0];
  const Sojourn& s1 = schedule.mcvs[1].sojourns[0];
  EXPECT_DOUBLE_EQ(s0.start, 10.0);
  EXPECT_DOUBLE_EQ(s0.finish, 110.0);
  EXPECT_DOUBLE_EQ(s1.arrival, 14.0);
  EXPECT_DOUBLE_EQ(s1.start, 110.0);
  // Sensor 1 was grabbed by the earlier sojourn; MCV 1 charges only 2.
  EXPECT_EQ(s1.charged, (std::vector<std::uint32_t>{2}));
  EXPECT_DOUBLE_EQ(s1.duration(), 200.0);
}

TEST(ExecuteMultiNode, NoConflictWhenFarApart) {
  const auto p = far2(2);
  ChargingPlan plan;
  plan.tours = {{0}, {1}};
  const auto schedule = execute_plan(p, plan);
  EXPECT_DOUBLE_EQ(schedule.total_wait(), 0.0);
  EXPECT_TRUE(verify_schedule(p, schedule).empty());
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].return_time, 30.0 + 100.0 + 30.0);
  EXPECT_DOUBLE_EQ(schedule.mcvs[1].return_time, 30.0 + 300.0 + 30.0);
  EXPECT_DOUBLE_EQ(schedule.longest_delay(), 360.0);
}

TEST(ExecuteMultiNode, EmptyTours) {
  const auto p = far2(3);
  ChargingPlan plan;
  plan.tours = {{0, 1}, {}, {}};
  const auto schedule = execute_plan(p, plan);
  EXPECT_DOUBLE_EQ(schedule.mcvs[1].return_time, 0.0);
  EXPECT_DOUBLE_EQ(schedule.mcvs[2].return_time, 0.0);
  EXPECT_TRUE(schedule.all_charged());
}

TEST(ExecuteMultiNode, EmptyProblem) {
  ChargingProblem p({}, {}, {0, 0}, 2.7, 1.0, 2);
  ChargingPlan plan;
  plan.tours = {{}, {}};
  const auto schedule = execute_plan(p, plan);
  EXPECT_DOUBLE_EQ(schedule.longest_delay(), 0.0);
  EXPECT_TRUE(verify_schedule(p, schedule).empty());
}

TEST(ExecuteMultiNode, ZeroDeficitSensorsMakeZeroLengthStops) {
  ChargingProblem p({{10, 0}, {40, 0}}, {0.0, 0.0}, {0, 0}, 2.7, 1.0, 1);
  ChargingPlan plan;
  plan.tours = {{0, 1}};
  const auto schedule = execute_plan(p, plan);
  EXPECT_DOUBLE_EQ(schedule.longest_delay(), 80.0);  // pure travel
  EXPECT_TRUE(schedule.all_charged());
  EXPECT_TRUE(verify_schedule(p, schedule).empty());
}

// One-to-one execution -----------------------------------------------------

TEST(ExecuteOneToOne, ChargesOnlyTarget) {
  const auto p = line3(1);
  ChargingPlan plan;
  plan.mode = ChargeMode::kOneToOne;
  plan.tours = {{0, 1, 2}};
  const auto schedule = execute_plan(p, plan);
  const auto& sojourns = schedule.mcvs[0].sojourns;
  ASSERT_EQ(sojourns.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sojourns[i].charged, std::vector<std::uint32_t>{
                                       static_cast<std::uint32_t>(i)});
    EXPECT_DOUBLE_EQ(sojourns[i].duration(), p.charge_seconds(
                                                 static_cast<std::uint32_t>(i)));
  }
  // Delay: 10 travel + 100 + 2 + 50 + 2 + 200 + 14 back.
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].return_time, 10 + 100 + 2 + 50 + 2 + 200 + 14);
  EXPECT_TRUE(verify_schedule(p, schedule).empty());
}

TEST(ExecuteOneToOne, NoConflictSemanticsEvenWhenClose) {
  // One-to-one chargers may work adjacent sensors concurrently.
  const auto p = line3(2);
  ChargingPlan plan;
  plan.mode = ChargeMode::kOneToOne;
  plan.tours = {{0, 1}, {2}};
  const auto schedule = execute_plan(p, plan);
  EXPECT_DOUBLE_EQ(schedule.total_wait(), 0.0);
  EXPECT_TRUE(schedule.all_charged());
  EXPECT_TRUE(verify_schedule(p, schedule).empty());
}

TEST(ExecuteOneToOne, DuplicateTargetChargedOnce) {
  // Two MCVs race to the same sensor: the one-to-one executor must let the
  // earlier arrival charge it and turn the later visit into a zero-length
  // stop.
  ChargingProblem p({{10, 0}, {40, 0}}, {100.0, 100.0}, {0, 0}, 2.7, 1.0,
                    2);
  ChargingPlan plan;
  plan.mode = ChargeMode::kOneToOne;
  plan.tours = {{0}, {1}};
  // Same target via two plans is rejected (node-disjointness); emulate the
  // race through the schedule-level invariant instead: each sensor is
  // charged by exactly one sojourn even when coverage overlaps.
  const auto schedule = execute_plan(p, plan);
  std::size_t charges = 0;
  for (const auto& mcv : schedule.mcvs) {
    for (const auto& s : mcv.sojourns) charges += s.charged.size();
  }
  EXPECT_EQ(charges, 2u);
  EXPECT_TRUE(verify_schedule(p, schedule).empty());
}

// One-to-one execution under faults. Hand-computed timelines on line3
// (sensors at x = 10, 12, 14, deficits 100 / 50 / 200 s, speed 1 m/s,
// depot at the origin): the oracle for the executor's one-to-one mode.

VerifyOptions partial_options(const ExecutionFaults& faults) {
  VerifyOptions options;
  options.require_full_coverage = false;
  options.allow_partial = true;
  options.faults = &faults;
  return options;
}

TEST(ExecuteOneToOne, BreakdownAfterFirstStopKeepsOnlyIt) {
  const auto p = line3(1);
  ChargingPlan plan;
  plan.mode = ChargeMode::kOneToOne;
  plan.tours = {{0, 1, 2}};
  ExecutionFaults faults;
  faults.breakdown_after = {1};
  const auto schedule = execute_plan(p, plan, faults);
  const auto& mcv = schedule.mcvs[0];
  ASSERT_TRUE(mcv.aborted);
  EXPECT_EQ(mcv.abort_cause, BreakdownCause::kFault);
  ASSERT_EQ(mcv.sojourns.size(), 1u);
  EXPECT_EQ(mcv.sojourns[0].charged, std::vector<std::uint32_t>{0});
  EXPECT_DOUBLE_EQ(mcv.sojourns[0].arrival, 10.0);
  EXPECT_DOUBLE_EQ(mcv.sojourns[0].finish, 110.0);
  // The tour ends where it stopped: no depot leg.
  EXPECT_DOUBLE_EQ(mcv.return_time, 110.0);
  EXPECT_EQ(mcv.skipped, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_DOUBLE_EQ(schedule.charged_at[0], 110.0);
  EXPECT_EQ(schedule.charged_at[1], kNeverCharged);
  EXPECT_EQ(schedule.charged_at[2], kNeverCharged);
  const auto violations = verify_schedule(p, schedule, partial_options(faults));
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);
}

TEST(ExecuteOneToOne, ConstantMultipliersRescaleEveryLegAndStop) {
  const auto p = line3(1);
  ChargingPlan plan;
  plan.mode = ChargeMode::kOneToOne;
  plan.tours = {{0, 1, 2}};
  ExecutionFaults faults;
  faults.travel_multiplier = [](std::uint32_t, std::size_t) { return 2.0; };
  faults.charge_multiplier = [](std::uint32_t) { return 1.5; };
  const auto schedule = execute_plan(p, plan, faults);
  const auto& s = schedule.mcvs[0].sojourns;
  ASSERT_EQ(s.size(), 3u);
  // 20 out, 150 charging; 4, 75; 4, 300; 28 home.
  EXPECT_DOUBLE_EQ(s[0].arrival, 20.0);
  EXPECT_DOUBLE_EQ(s[0].finish, 170.0);
  EXPECT_DOUBLE_EQ(s[1].arrival, 174.0);
  EXPECT_DOUBLE_EQ(s[1].finish, 249.0);
  EXPECT_DOUBLE_EQ(s[2].arrival, 253.0);
  EXPECT_DOUBLE_EQ(s[2].finish, 553.0);
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].return_time, 581.0);
  EXPECT_DOUBLE_EQ(schedule.total_wait(), 0.0);
  EXPECT_FALSE(schedule.partial());
  VerifyOptions options;
  options.faults = &faults;
  EXPECT_TRUE(verify_schedule(p, schedule, options).empty());
}

TEST(ExecuteOneToOne, BudgetAbortsAtTheReturnLeg) {
  // 14 m out (700 J at 50 J/m) plus 350 s at 2 W (700 J) fit an 1800 J
  // battery; the 14 m home leg (700 J more) does not.
  const auto p = line3(1);
  ChargingPlan plan;
  plan.mode = ChargeMode::kOneToOne;
  plan.tours = {{0, 1, 2}};
  ExecutionFaults faults;
  faults.budget.capacity_j = 1800.0;
  const auto schedule = execute_plan(p, plan, faults);
  const auto& mcv = schedule.mcvs[0];
  ASSERT_TRUE(mcv.aborted);
  EXPECT_EQ(mcv.abort_cause, BreakdownCause::kEnergyExhausted);
  ASSERT_EQ(mcv.sojourns.size(), 3u);
  EXPECT_TRUE(mcv.skipped.empty());
  EXPECT_TRUE(schedule.all_charged());
  EXPECT_DOUBLE_EQ(mcv.return_time, 10 + 100 + 2 + 50 + 2 + 200);
  EXPECT_DOUBLE_EQ(mcv.energy_spent_j, 1400.0);
  const auto violations = verify_schedule(p, schedule, partial_options(faults));
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);
}

TEST(ExecuteOneToOne, ZeroDeficitStopIsZeroLengthUnderChargeJitter) {
  // A stop whose sensor needs nothing is a zero-length stop even though
  // the charge multiplier is drawn for it.
  ChargingProblem p({{10, 0}, {12, 0}}, {0.0, 50.0}, {0, 0}, 2.7, 1.0, 1);
  ChargingPlan plan;
  plan.mode = ChargeMode::kOneToOne;
  plan.tours = {{0, 1}};
  ExecutionFaults faults;
  faults.charge_multiplier = [](std::uint32_t) { return 1.5; };
  const auto schedule = execute_plan(p, plan, faults);
  const auto& s = schedule.mcvs[0].sojourns;
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].arrival, 10.0);
  EXPECT_DOUBLE_EQ(s[0].duration(), 0.0);
  EXPECT_DOUBLE_EQ(schedule.charged_at[0], 10.0);
  EXPECT_DOUBLE_EQ(s[1].arrival, 12.0);
  EXPECT_DOUBLE_EQ(s[1].finish, 12.0 + 75.0);
  EXPECT_DOUBLE_EQ(schedule.mcvs[0].return_time, 87.0 + 12.0);
  VerifyOptions options;
  options.faults = &faults;
  EXPECT_TRUE(verify_schedule(p, schedule, options).empty());
}

TEST(ExecuteOneToOneDeathTest, RepeatVisitIsRejected) {
  // A second visit to an already-charged sensor cannot be planned: plans
  // are node-disjoint in both modes.
  const auto p = line3(2);
  ChargingPlan plan;
  plan.mode = ChargeMode::kOneToOne;
  plan.tours = {{0, 1}, {1}};
  EXPECT_DEATH(execute_plan(p, plan), "at most once");
}

TEST(ExecuteMultiNode, ThreeWayConflictFullySerialized) {
  // Three stops whose disks pairwise intersect only at the shared sensor
  // 3; each stop also owns a private sensor. The executor must serialize
  // all three charging intervals.
  ChargingProblem p({{10, 0}, {14, 0}, {12, 2.5}, {12, 0}},
                    {500.0, 400.0, 300.0, 200.0}, {0, 0}, 2.7, 1.0, 3);
  ASSERT_TRUE(p.overlapping(0, 1));
  ASSERT_TRUE(p.overlapping(0, 2));
  ASSERT_TRUE(p.overlapping(1, 2));
  ChargingPlan plan;
  plan.tours = {{0}, {1}, {2}};
  const auto schedule = execute_plan(p, plan);
  const auto violations = verify_schedule(p, schedule);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations[0]);
  // All four sensors charged despite only three stops.
  EXPECT_TRUE(schedule.all_charged());
  // Both later MCVs queued behind the first: 500 s for the second stop
  // plus 900 s for the third, minus their travel head-starts.
  EXPECT_GT(schedule.total_wait(), 900.0);
}

// Verifier -----------------------------------------------------------------

TEST(Verify, DetectsSimultaneousConflict) {
  const auto p = line3(2);
  // Hand-craft an invalid schedule: both MCVs charge overlapping disks at
  // the same time.
  ChargingSchedule bad;
  bad.mode = ChargeMode::kMultiNode;
  bad.mcvs.resize(2);
  Sojourn a;
  a.location = 0;
  a.arrival = a.start = 10.0;
  a.finish = 110.0;
  a.charged = {0, 1};
  Sojourn b;
  b.location = 2;
  b.arrival = b.start = 14.0;
  b.finish = 214.0;
  b.charged = {2};
  bad.mcvs[0].sojourns = {a};
  bad.mcvs[0].return_time = 120.0;
  bad.mcvs[1].sojourns = {b};
  bad.mcvs[1].return_time = 228.0;
  bad.charged_at = {110.0, 110.0, 214.0};
  const auto violations = verify_schedule(p, bad);
  bool found = false;
  for (const auto& v : violations) {
    if (v.find("simultaneous charging conflict") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Verify, DetectsUncoveredSensor) {
  const auto p = far2(1);
  ChargingPlan plan;
  plan.tours = {{0}};  // sensor 1 is 60 m away: never charged
  const auto schedule = execute_plan(p, plan);
  const auto violations = verify_schedule(p, schedule);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("uncovered"), std::string::npos);
  // With coverage not required, the schedule is otherwise valid.
  VerifyOptions opts;
  opts.require_full_coverage = false;
  EXPECT_TRUE(verify_schedule(p, schedule, opts).empty());
}

TEST(Verify, DetectsUndercharge) {
  const auto p = far2(1);
  ChargingPlan plan;
  plan.tours = {{0, 1}};
  auto schedule = execute_plan(p, plan);
  // Corrupt: shorten the first sojourn below the needed duration.
  schedule.mcvs[0].sojourns[0].finish =
      schedule.mcvs[0].sojourns[0].start + 1.0;
  const auto violations = verify_schedule(p, schedule);
  bool found = false;
  for (const auto& v : violations) {
    if (v.find("undercharge") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Verify, DetectsRevisitedLocation) {
  const auto p = far2(2);
  ChargingSchedule bad;
  bad.mode = ChargeMode::kOneToOne;
  bad.mcvs.resize(2);
  Sojourn s;
  s.location = 0;
  s.arrival = s.start = 30.0;
  s.finish = 130.0;
  s.charged = {0};
  bad.mcvs[0].sojourns = {s};
  bad.mcvs[0].return_time = 160.0;
  Sojourn dup = s;
  dup.charged = {};
  bad.mcvs[1].sojourns = {dup};
  bad.mcvs[1].return_time = 160.0;
  bad.charged_at = {130.0, kNeverCharged};
  VerifyOptions opts;
  opts.require_full_coverage = false;
  const auto violations = verify_schedule(p, bad, opts);
  bool found = false;
  for (const auto& v : violations) {
    if (v.find("revisited") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Verify, DetectsChargeOutsideRange) {
  const auto p = far2(1);
  ChargingSchedule bad;
  bad.mode = ChargeMode::kMultiNode;
  bad.mcvs.resize(1);
  Sojourn s;
  s.location = 0;
  s.arrival = s.start = 30.0;
  s.finish = 330.0;
  s.charged = {0, 1};  // sensor 1 is 60 m away — not chargeable from 0
  bad.mcvs[0].sojourns = {s};
  bad.mcvs[0].return_time = 360.0;
  bad.charged_at = {330.0, 330.0};
  const auto violations = verify_schedule(p, bad);
  bool found = false;
  for (const auto& v : violations) {
    if (v.find("outside range") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(EnergyUse, MatchesHandComputation) {
  const auto p = far2(2);  // sensors at (20,0) and (80,0), depot (50,0)
  ChargingPlan plan;
  plan.tours = {{0}, {1}};
  const auto schedule = execute_plan(p, plan);
  const auto use = schedule.energy_use(p);
  ASSERT_EQ(use.size(), 2u);
  // MCV 0: 30 m out + 30 m back at 50 J/m; 100 s charging at 2 W.
  EXPECT_DOUBLE_EQ(use[0].locomotion_j, 3000.0);
  EXPECT_DOUBLE_EQ(use[0].delivered_j, 200.0);
  // MCV 1: same travel; 300 s charging.
  EXPECT_DOUBLE_EQ(use[1].locomotion_j, 3000.0);
  EXPECT_DOUBLE_EQ(use[1].delivered_j, 600.0);
}

TEST(EnergyUse, EmptyTourUsesNothing) {
  const auto p = far2(2);
  ChargingPlan plan;
  plan.tours = {{0, 1}, {}};
  const auto schedule = execute_plan(p, plan);
  const auto use = schedule.energy_use(p);
  EXPECT_DOUBLE_EQ(use[1].locomotion_j, 0.0);
  EXPECT_DOUBLE_EQ(use[1].delivered_j, 0.0);
  EXPECT_GT(use[0].locomotion_j, 0.0);
}

TEST(EnergyUse, MultiNodeDeliversAtLeastTotalDeficitEnergy) {
  // The transmitter runs for max-deficit at each stop, so energy radiated
  // >= the energy any single sensor needed; with de-duplication the sum
  // across stops is at least the largest per-stop need (not the sum of all
  // sensors' needs, since one transmission feeds many receivers).
  const auto p = line3(1);
  ChargingPlan plan;
  plan.tours = {{1}};  // covers all three sensors in one stop
  const auto schedule = execute_plan(p, plan);
  const auto use = schedule.energy_use(p);
  EXPECT_DOUBLE_EQ(use[0].delivered_j, 200.0 * 2.0);  // tau' = 200 s at 2 W
}

TEST(EnergyUse, AbortedTourDrivesNoDepotLeg) {
  // One MCV breaks down after (80,0), its first of two stops: 80 m driven
  // (4000 J at 50 J/m) and 100 s radiated at 2 W. The fleet-sizing account
  // must match the executor's metered draw (lossless transfer), which
  // never pays for a depot leg the stranded vehicle did not drive.
  ChargingProblem p({{80, 0}, {90, 0}}, {100.0, 100.0}, {0, 0}, 2.7, 1.0, 1);
  ChargingPlan plan;
  plan.tours = {{0, 1}};
  ExecutionFaults faults;
  faults.breakdown_after = {1};
  faults.budget.capacity_j = 1e9;
  const auto schedule = execute_plan(p, plan, faults);
  ASSERT_TRUE(schedule.mcvs[0].aborted);
  const auto use = schedule.energy_use(p);
  EXPECT_DOUBLE_EQ(use[0].locomotion_j, 4000.0);
  EXPECT_DOUBLE_EQ(use[0].delivered_j, 200.0);
  EXPECT_DOUBLE_EQ(use[0].locomotion_j + use[0].delivered_j,
                   schedule.mcvs[0].energy_spent_j);
}

// Estimator (Eq. (5)) ------------------------------------------------------

TEST(Estimate, MatchesHandComputedBound) {
  const auto p = line3(1);
  ChargingPlan plan;
  plan.tours = {{0, 2}};
  const auto bounds = oracle::estimate_tour_bounds(p, plan);
  ASSERT_EQ(bounds.size(), 1u);
  // tau(0) = max(t0,t1) = 100; tau(2) = max(t1,t2) = 200.
  EXPECT_DOUBLE_EQ(bounds[0], 10.0 + 100.0 + 4.0 + 200.0 + 14.0);
  // Executed delay uses tau' (sensor 1 de-duplicated) and is <= the bound.
  const auto schedule = execute_plan(p, plan);
  EXPECT_LE(schedule.mcvs[0].return_time, bounds[0] + 1e-9);
}

TEST(Estimate, OneToOneEstimateIsExact) {
  const auto p = line3(1);
  ChargingPlan plan;
  plan.mode = ChargeMode::kOneToOne;
  plan.tours = {{0, 1, 2}};
  const auto schedule = execute_plan(p, plan);
  const auto bounds = oracle::estimate_tour_bounds(p, plan);
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_DOUBLE_EQ(bounds[0], schedule.longest_delay());
}

TEST(Estimate, EmptyTourIsZero) {
  const auto p = line3(2);
  ChargingPlan plan;
  plan.tours = {{}, {1}};
  const auto bounds = oracle::estimate_tour_bounds(p, plan);
  EXPECT_DOUBLE_EQ(bounds[0], 0.0);
  EXPECT_GT(bounds[1], 0.0);
}

class EstimateUpperBounds : public ::testing::TestWithParam<int> {};

TEST_P(EstimateUpperBounds, ExecutedDelayNeverExceedsBoundWithoutWaiting) {
  // The paper's T'(k) <= T(k) claim, checked on conflict-free plans:
  // assign far-apart location clusters to distinct MCVs.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1511 + 7);
  const std::size_t n = 20 + rng.below(60);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < n; ++i) {
    // Two widely separated bands so per-band tours never conflict.
    const double x_base = i % 2 == 0 ? 0.0 : 500.0;
    pts.push_back({x_base + rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)});
    deficits.push_back(rng.uniform(10.0, 2000.0));
  }
  ChargingProblem p(std::move(pts), std::move(deficits), {280.0, 30.0}, 2.7,
                    1.0, 2);
  ChargingPlan plan;
  plan.tours.assign(2, {});
  for (std::uint32_t v = 0; v < n; ++v) plan.tours[v % 2].push_back(v);
  const auto schedule = execute_plan(p, plan);
  ASSERT_DOUBLE_EQ(schedule.total_wait(), 0.0);
  const auto bounds = oracle::estimate_tour_bounds(p, plan);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_LE(schedule.mcvs[k].return_time, bounds[k] + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimateUpperBounds, ::testing::Range(0, 10));

// Randomized end-to-end property: arbitrary (valid) plans execute to
// conflict-free schedules.
class ExecutorProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorProperty, RandomPlansAlwaysConflictFree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2029 + 7);
  const std::size_t n = 30 + rng.below(60);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(10.0, 4000.0));
  }
  const std::size_t k = 1 + rng.below(4);
  ChargingProblem p(std::move(pts), std::move(deficits), {50, 50}, 2.7, 1.0, k);

  // Random partition of a random subset of locations into K tours.
  ChargingPlan plan;
  plan.tours.assign(k, {});
  for (std::uint32_t v = 0; v < n; ++v) {
    if (rng.uniform() < 0.7) plan.tours[rng.below(k)].push_back(v);
  }
  const auto schedule = execute_plan(p, plan);
  VerifyOptions opts;
  opts.require_full_coverage = false;
  const auto violations = verify_schedule(p, schedule, opts);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace mcharge::sched
