// Tests for the four baseline schedulers: K-minMax, K-EDF, NETWRAP, AA.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "baselines/aa.h"
#include "baselines/greedy_cover.h"
#include "baselines/kedf.h"
#include "baselines/kminmax.h"
#include "baselines/netwrap.h"
#include "model/charging_problem.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "util/rng.h"

namespace mcharge::baselines {
namespace {

using model::ChargingProblem;

ChargingProblem random_problem(std::size_t n, std::size_t k, Rng& rng) {
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  std::vector<double> lifetimes;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(3456.0, 5400.0));
    lifetimes.push_back(rng.uniform(600.0, 4.0e5));
  }
  ChargingProblem p(std::move(pts), std::move(deficits), {50, 50}, 2.7, 1.0,
                    k);
  p.set_residual_lifetimes(std::move(lifetimes));
  return p;
}

void expect_one_to_one_cover_all(const sched::ChargingPlan& plan,
                                 std::size_t n) {
  EXPECT_EQ(plan.mode, sched::ChargeMode::kOneToOne);
  std::set<std::uint32_t> seen;
  for (const auto& tour : plan.tours) {
    for (std::uint32_t v : tour) {
      EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
    }
  }
  EXPECT_EQ(seen.size(), n);
}

// ---------- K-minMax ----------

TEST(KMinMax, CoversAllSensorsOnce) {
  Rng rng(1);
  const auto p = random_problem(120, 3, rng);
  KMinMaxScheduler sched_algo;
  const auto plan = sched_algo.plan(p);
  ASSERT_EQ(plan.tours.size(), 3u);
  expect_one_to_one_cover_all(plan, 120);
}

TEST(KMinMax, ExecutesFeasibly) {
  Rng rng(2);
  const auto p = random_problem(80, 2, rng);
  KMinMaxScheduler sched_algo;
  const auto schedule = sched::execute_plan(p, sched_algo.plan(p));
  EXPECT_TRUE(sched::verify_schedule(p, schedule).empty());
  EXPECT_TRUE(schedule.all_charged());
}

TEST(KMinMax, MoreChargersHelp) {
  Rng rng(3);
  const auto base = random_problem(150, 1, rng);
  double k1 = 0.0, k4 = 0.0;
  for (std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    ChargingProblem p(std::vector<geom::Point>(base.positions()),
                      std::vector<double>(base.charge_seconds()), base.depot(),
                      base.gamma(), base.speed(), k);
    KMinMaxScheduler sched_algo;
    const double delay =
        sched::execute_plan(p, sched_algo.plan(p)).longest_delay();
    (k == 1 ? k1 : k4) = delay;
  }
  EXPECT_LT(k4, k1);
}

// ---------- K-EDF ----------

TEST(KEdf, CoversAllAndRespectsDeadlineGrouping) {
  Rng rng(4);
  const auto p = random_problem(60, 2, rng);
  KEdfScheduler sched_algo;
  const auto plan = sched_algo.plan(p);
  expect_one_to_one_cover_all(plan, 60);

  // Reconstruct the group index of each sensor: position in tour = group.
  // Every sensor in group g must have residual lifetime <= any in g+2
  // (groups of size K=2 taken in deadline order; adjacent groups may
  // interleave equal values, two groups apart may not).
  std::vector<double> group_deadline_max;
  for (std::size_t pos = 0;; ++pos) {
    double mx = -1.0;
    bool any = false;
    for (const auto& tour : plan.tours) {
      if (pos < tour.size()) {
        mx = std::max(mx, p.residual_lifetime(tour[pos]));
        any = true;
      }
    }
    if (!any) break;
    group_deadline_max.push_back(mx);
  }
  for (std::size_t g = 0; g + 2 < group_deadline_max.size(); ++g) {
    double later_min = std::numeric_limits<double>::infinity();
    for (const auto& tour : plan.tours) {
      if (g + 2 < tour.size()) {
        later_min = std::min(later_min, p.residual_lifetime(tour[g + 2]));
      }
    }
    if (later_min != std::numeric_limits<double>::infinity()) {
      EXPECT_LE(group_deadline_max[g], later_min + 1e-9);
    }
  }
}

TEST(KEdf, ExecutesFeasibly) {
  Rng rng(5);
  const auto p = random_problem(90, 3, rng);
  KEdfScheduler sched_algo;
  const auto schedule = sched::execute_plan(p, sched_algo.plan(p));
  EXPECT_TRUE(sched::verify_schedule(p, schedule).empty());
  EXPECT_TRUE(schedule.all_charged());
}

TEST(KEdf, SingleCharger) {
  Rng rng(6);
  const auto p = random_problem(30, 1, rng);
  KEdfScheduler sched_algo;
  const auto plan = sched_algo.plan(p);
  ASSERT_EQ(plan.tours.size(), 1u);
  // With K=1 the tour must be exactly deadline order.
  for (std::size_t i = 0; i + 1 < plan.tours[0].size(); ++i) {
    EXPECT_LE(p.residual_lifetime(plan.tours[0][i]),
              p.residual_lifetime(plan.tours[0][i + 1]) + 1e-9);
  }
}

TEST(KEdf, EmptyProblem) {
  ChargingProblem p({}, {}, {0, 0}, 2.7, 1.0, 2);
  KEdfScheduler sched_algo;
  const auto plan = sched_algo.plan(p);
  EXPECT_EQ(plan.total_stops(), 0u);
}

// ---------- NETWRAP ----------

TEST(Netwrap, CoversAllSensorsOnce) {
  Rng rng(7);
  const auto p = random_problem(70, 2, rng);
  NetwrapScheduler sched_algo;
  expect_one_to_one_cover_all(sched_algo.plan(p), 70);
}

TEST(Netwrap, ExecutesFeasibly) {
  Rng rng(8);
  const auto p = random_problem(100, 4, rng);
  NetwrapScheduler sched_algo;
  const auto schedule = sched::execute_plan(p, sched_algo.plan(p));
  EXPECT_TRUE(sched::verify_schedule(p, schedule).empty());
  EXPECT_TRUE(schedule.all_charged());
}

TEST(Netwrap, PureTravelWeightActsGreedyByDistance) {
  // travel_weight = 1: first pick is the sensor nearest the depot.
  Rng rng(9);
  const auto p = random_problem(50, 1, rng);
  NetwrapScheduler sched_algo(1.0);
  const auto plan = sched_algo.plan(p);
  ASSERT_FALSE(plan.tours[0].empty());
  std::uint32_t nearest = 0;
  for (std::uint32_t v = 1; v < p.size(); ++v) {
    if (geom::distance(p.depot(), p.position(v)) <
        geom::distance(p.depot(), p.position(nearest))) {
      nearest = v;
    }
  }
  EXPECT_EQ(plan.tours[0][0], nearest);
}

TEST(Netwrap, PureDeadlineWeightActsEdf) {
  // travel_weight = 0: K=1 visits in deadline order.
  Rng rng(10);
  const auto p = random_problem(40, 1, rng);
  NetwrapScheduler sched_algo(0.0);
  const auto plan = sched_algo.plan(p);
  for (std::size_t i = 0; i + 1 < plan.tours[0].size(); ++i) {
    EXPECT_LE(p.residual_lifetime(plan.tours[0][i]),
              p.residual_lifetime(plan.tours[0][i + 1]) + 1e-9);
  }
}

// ---------- AA ----------

TEST(Aa, PartitionsAndExecutesFeasibly) {
  Rng rng(11);
  const auto p = random_problem(120, 3, rng);
  AaScheduler sched_algo;
  const auto plan = sched_algo.plan(p);
  EXPECT_EQ(plan.tours.size(), 3u);
  const auto schedule = sched::execute_plan(p, plan);
  sched::VerifyOptions opts;
  opts.require_full_coverage = false;  // AA may prune unprofitable sensors
  EXPECT_TRUE(sched::verify_schedule(p, schedule, opts).empty());
}

TEST(Aa, ChargesEverythingWhenProfitable) {
  // Deep deficits in a small field: nothing is unprofitable.
  Rng rng(12);
  const auto p = random_problem(80, 2, rng);
  AaScheduler sched_algo;
  const auto plan = sched_algo.plan(p);
  expect_one_to_one_cover_all(plan, 80);
}

TEST(Aa, PrunesUnprofitableSensors) {
  // Tiny deficits far from the depot: 2 J delivered against ~2.8 kJ of
  // detour at 50 J/m, so everything is unprofitable.
  std::vector<geom::Point> pts{{10, 10}, {90, 90}};
  ChargingProblem p(std::move(pts), {1.0, 1.0}, {50, 50}, 2.7, 1.0, 1);
  p.set_residual_lifetimes({100.0, 200.0});
  AaScheduler sched_algo;
  const auto plan = sched_algo.plan(p);
  EXPECT_EQ(plan.total_stops(), 0u);
}

TEST(Aa, GroupsAreSpatial) {
  // Two far-apart blobs with K=2: each tour stays inside one blob.
  Rng rng(13);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  std::vector<double> lifetimes;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
    deficits.push_back(5000.0);
    lifetimes.push_back(rng.uniform(1e3, 1e5));
  }
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.uniform(90.0, 100.0), rng.uniform(90.0, 100.0)});
    deficits.push_back(5000.0);
    lifetimes.push_back(rng.uniform(1e3, 1e5));
  }
  ChargingProblem p(std::move(pts), std::move(deficits), {50, 50}, 2.7, 1.0,
                    2);
  p.set_residual_lifetimes(std::move(lifetimes));
  AaScheduler sched_algo;
  const auto plan = sched_algo.plan(p);
  for (const auto& tour : plan.tours) {
    if (tour.empty()) continue;
    const bool first_blob = tour[0] < 30;
    for (std::uint32_t v : tour) {
      EXPECT_EQ(v < 30, first_blob);
    }
  }
}

// ---------- GreedyCover ----------

TEST(GreedyCover, CoversEverySensorMultiNode) {
  Rng rng(21);
  const auto p = random_problem(200, 2, rng);
  GreedyCoverScheduler sched_algo;
  const auto plan = sched_algo.plan(p);
  EXPECT_EQ(plan.mode, sched::ChargeMode::kMultiNode);
  const auto schedule = sched::execute_plan(p, plan);
  EXPECT_TRUE(schedule.all_charged());
  const auto violations = sched::verify_schedule(p, schedule);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations[0]);
}

TEST(GreedyCover, NeverMoreStopsThanSensors) {
  Rng rng(22);
  const auto p = random_problem(150, 3, rng);
  GreedyCoverScheduler sched_algo;
  EXPECT_LE(sched_algo.plan(p).total_stops(), 150u);
}

TEST(GreedyCover, PicksDominatingLocationFirst) {
  // A hub covering three satellites plus one isolated sensor: the greedy
  // pick must be the hub, giving exactly two stops.
  std::vector<geom::Point> pts{{10, 10}, {12, 10}, {10, 12}, {8, 10},
                               {80, 80}};
  std::vector<double> deficits(5, 1000.0);
  ChargingProblem p(std::move(pts), std::move(deficits), {50, 50}, 2.7, 1.0,
                    1);
  GreedyCoverScheduler sched_algo;
  const auto plan = sched_algo.plan(p);
  EXPECT_EQ(plan.total_stops(), 2u);
  bool hub_used = false;
  for (const auto& tour : plan.tours) {
    for (auto v : tour) hub_used |= (v == 0);
  }
  EXPECT_TRUE(hub_used);
}

TEST(GreedyCover, EmptyProblem) {
  ChargingProblem p({}, {}, {0, 0}, 2.7, 1.0, 2);
  EXPECT_EQ(GreedyCoverScheduler().plan(p).total_stops(), 0u);
}

// ---------- cross-algorithm sanity ----------

TEST(AllBaselines, EmptyProblemYieldsEmptyPlans) {
  ChargingProblem p({}, {}, {0, 0}, 2.7, 1.0, 2);
  EXPECT_EQ(KMinMaxScheduler().plan(p).total_stops(), 0u);
  EXPECT_EQ(KEdfScheduler().plan(p).total_stops(), 0u);
  EXPECT_EQ(NetwrapScheduler().plan(p).total_stops(), 0u);
  EXPECT_EQ(AaScheduler().plan(p).total_stops(), 0u);
}

TEST(AllBaselines, NamesMatchPaperLegend) {
  EXPECT_EQ(KMinMaxScheduler().name(), "K-minMax");
  EXPECT_EQ(KEdfScheduler().name(), "K-EDF");
  EXPECT_EQ(NetwrapScheduler().name(), "NETWRAP");
  EXPECT_EQ(AaScheduler().name(), "AA");
}

class BaselineProperty : public ::testing::TestWithParam<int> {};

TEST_P(BaselineProperty, AllFeasibleAcrossSeedsAndK) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 503 + 19);
  const std::size_t n = 20 + rng.below(120);
  const std::size_t k = 1 + rng.below(5);
  const auto p = random_problem(n, k, rng);
  const KMinMaxScheduler a;
  const KEdfScheduler b;
  const NetwrapScheduler c;
  const AaScheduler d;
  for (const sched::Scheduler* s :
       std::initializer_list<const sched::Scheduler*>{&a, &b, &c, &d}) {
    const auto schedule = sched::execute_plan(p, s->plan(p));
    sched::VerifyOptions opts;
    opts.require_full_coverage = s->name() != "AA";
    const auto violations = sched::verify_schedule(p, schedule, opts);
    EXPECT_TRUE(violations.empty())
        << s->name() << ": " << (violations.empty() ? "" : violations[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace mcharge::baselines
