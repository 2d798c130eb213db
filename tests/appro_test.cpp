// Tests for algorithm Appro (the paper's contribution).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "core/appro.h"
#include "core/overlap_graph.h"
#include "geometry/field.h"
#include "graph/mis.h"
#include "model/charging_problem.h"
#include "offset_clusters.h"
#include "schedule/estimate.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "tsp/split.h"
#include "tsp/tour_problem.h"
#include "util/rng.h"

namespace mcharge::core {
namespace {

using model::ChargingProblem;

ChargingProblem random_problem(std::size_t n, std::size_t k, Rng& rng,
                               double field = 100.0) {
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, field), rng.uniform(0.0, field)});
    deficits.push_back(rng.uniform(3456.0, 5400.0));  // 64%..100% of 10.8kJ/2W
  }
  return ChargingProblem(std::move(pts), std::move(deficits),
                         {field / 2, field / 2}, 2.7, 1.0, k);
}

// ---------- overlap graph ----------

TEST(OverlapGraph, ChargingGraphEdges) {
  ChargingProblem p({{0, 0}, {2, 0}, {10, 0}}, {1, 1, 1}, {0, 0}, 2.7, 1.0, 1);
  const auto gc = charging_graph(p);
  EXPECT_TRUE(gc.has_edge(0, 1));
  EXPECT_FALSE(gc.has_edge(0, 2));
  EXPECT_FALSE(gc.has_edge(1, 2));
}

TEST(OverlapGraph, HEdgeIffCoverageIntersects) {
  // 0 at x=0, 1 at x=4 (share the sensor at x=2), 2 at x=20 (isolated).
  ChargingProblem p({{0, 0}, {4, 0}, {20, 0}, {2, 0}}, {1, 1, 1, 1}, {0, 0},
                    2.7, 1.0, 1);
  const std::vector<std::uint32_t> subset{0, 1, 2};
  const auto h = overlap_graph(p, subset);
  EXPECT_TRUE(h.has_edge(0, 1));
  EXPECT_FALSE(h.has_edge(0, 2));
  EXPECT_FALSE(h.has_edge(1, 2));
}

TEST(OverlapGraph, EmptySubset) {
  ChargingProblem p({{0, 0}}, {1}, {0, 0}, 2.7, 1.0, 1);
  const auto h = overlap_graph(p, {});
  EXPECT_EQ(h.num_vertices(), 0u);
}

TEST(OverlapGraph, ChargingGraphMatchesBruteForce) {
  Rng rng(10);
  const auto pts = geom::uniform_field(150, 50.0, 50.0, rng);
  const double gamma = 4.0;
  const ChargingProblem p(pts, std::vector<double>(pts.size(), 1.0), {0, 0},
                          gamma, 1.0, 1);
  const auto gc = charging_graph(p);
  for (std::uint32_t u = 0; u < pts.size(); ++u) {
    for (std::uint32_t v = u + 1; v < pts.size(); ++v) {
      EXPECT_EQ(gc.has_edge(u, v), geom::within(pts[u], pts[v], gamma))
          << u << "," << v;
    }
  }
}

TEST(OverlapGraph, ChargingGraphZeroRadiusOnlyCoincident) {
  // Coincident sensors are distinct vertices at distance 0: at gamma = 0
  // they are joined, and nothing else is.
  const ChargingProblem p({{0, 0}, {0, 0}, {1, 0}}, {1, 1, 1}, {0, 0}, 0.0,
                          1.0, 1);
  const auto gc = charging_graph(p);
  EXPECT_TRUE(gc.has_edge(0, 1));
  EXPECT_FALSE(gc.has_edge(0, 2));
  EXPECT_FALSE(gc.has_edge(1, 2));
  EXPECT_EQ(gc.num_edges(), 1u);
}

/// Checks every pair of overlap_graph(p, subset) against the exact
/// coverage-intersection predicate.
void expect_overlap_matches_predicate(const ChargingProblem& p,
                                      const std::vector<std::uint32_t>& subset,
                                      const char* what) {
  const auto h = overlap_graph(p, subset);
  ASSERT_EQ(h.num_vertices(), subset.size()) << what;
  for (std::uint32_t i = 0; i < subset.size(); ++i) {
    for (std::uint32_t j = i + 1; j < subset.size(); ++j) {
      EXPECT_EQ(h.has_edge(i, j), p.overlapping(subset[i], subset[j]))
          << what << ": " << subset[i] << "," << subset[j];
    }
  }
}

ChargingProblem problem_at(std::vector<geom::Point> pts, double gamma) {
  std::vector<double> deficits(pts.size(), 1.0);
  return ChargingProblem(std::move(pts), std::move(deficits), {0, 0}, gamma,
                         1.0, 1);
}

TEST(OverlapGraph, MatchesBruteForcePredicate) {
  Rng rng(5);
  {
    auto p = random_problem(150, 2, rng, 60.0);
    std::vector<std::uint32_t> subset;
    for (std::uint32_t v = 0; v < p.size(); v += 3) subset.push_back(v);
    expect_overlap_matches_predicate(p, subset, "uniform, every third");
  }
  {
    // Collinear chain 0, gamma, 2*gamma (all exactly representable): the
    // ends share only the middle sensor, at distance exactly gamma from
    // both, so the closed-disk predicate joins them.
    const auto p = problem_at({{0, 0}, {2.5, 0}, {5, 0}, {10, 0}}, 2.5);
    const std::vector<std::uint32_t> subset{0, 2, 3};
    const auto h = overlap_graph(p, subset);
    EXPECT_TRUE(h.has_edge(0, 1));
    EXPECT_FALSE(h.has_edge(1, 2));
    expect_overlap_matches_predicate(p, subset, "collinear chain");
  }
  {
    // Duplicate points: coincident sensors cover each other.
    const auto p = problem_at(
        {{1, 1}, {1, 1}, {1, 1}, {3, 1}, {3, 1}, {6, 1}, {9, 1}}, 2.5);
    const std::vector<std::uint32_t> subset{0, 1, 2, 3, 4, 5, 6};
    EXPECT_TRUE(overlap_graph(p, subset).has_edge(0, 2));
    expect_overlap_matches_predicate(p, subset, "duplicate points");
  }
  {
    // Clustered field: dense hotspots give long coverage lists.
    auto p = problem_at(geom::clustered_field(200, 60.0, 60.0, 4, 3.0, rng),
                        2.7);
    std::vector<std::uint32_t> subset;
    for (std::uint32_t v = 1; v < p.size(); v += 2) subset.push_back(v);
    expect_overlap_matches_predicate(p, subset, "clustered");
  }
  {
    // A subset that is not independent in G_c, in descending id order.
    auto p = random_problem(120, 2, rng, 25.0);
    std::vector<std::uint32_t> subset;
    for (std::uint32_t v = static_cast<std::uint32_t>(p.size()); v-- > 0;) {
      subset.push_back(v);
    }
    const auto gc = charging_graph(p);
    EXPECT_GT(gc.num_edges(), 0u);
    expect_overlap_matches_predicate(p, subset, "dependent subset");
  }
}

// ---------- Appro pipeline ----------

TEST(Appro, EmptyProblem) {
  ApproScheduler appro;
  ChargingProblem p({}, {}, {0, 0}, 2.7, 1.0, 3);
  const auto plan = appro.plan(p);
  EXPECT_EQ(plan.tours.size(), 3u);
  EXPECT_EQ(plan.total_stops(), 0u);
}

TEST(Appro, SingleSensor) {
  ApproScheduler appro;
  ChargingProblem p({{10, 10}}, {500.0}, {0, 0}, 2.7, 1.0, 2);
  const auto plan = appro.plan(p);
  EXPECT_EQ(plan.total_stops(), 1u);
  const auto schedule = sched::execute_plan(p, plan);
  EXPECT_TRUE(schedule.all_charged());
  EXPECT_TRUE(sched::verify_schedule(p, schedule).empty());
}

TEST(Appro, StatsAreConsistent) {
  Rng rng(11);
  const auto p = random_problem(400, 2, rng);
  ApproScheduler appro;
  ApproStats stats;
  const auto plan = appro.plan_with_stats(p, &stats);
  EXPECT_EQ(stats.v_s, 400u);
  EXPECT_GE(stats.s_i, stats.v_h);
  EXPECT_GT(stats.v_h, 0u);
  EXPECT_EQ(stats.v_h + stats.inserted_case_one + stats.inserted_case_two +
                stats.dropped_covered,
            stats.s_i);
  EXPECT_EQ(plan.total_stops(),
            stats.v_h + stats.inserted_case_one + stats.inserted_case_two);
}

TEST(Appro, SojournLocationsFormIndependentSetOfGc) {
  // All sojourn locations come from S_I, an independent set of G_c: no two
  // stops within gamma of each other.
  Rng rng(13);
  const auto p = random_problem(300, 3, rng);
  ApproScheduler appro;
  const auto plan = appro.plan(p);
  std::vector<std::uint32_t> stops;
  for (const auto& tour : plan.tours) {
    stops.insert(stops.end(), tour.begin(), tour.end());
  }
  for (std::size_t i = 0; i < stops.size(); ++i) {
    for (std::size_t j = i + 1; j < stops.size(); ++j) {
      EXPECT_GT(geom::distance(p.position(stops[i]), p.position(stops[j])),
                p.gamma());
    }
  }
}

class ApproProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ApproProperty, SchedulesAreFeasibleAndComplete) {
  const auto [seed, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 2);
  const std::size_t n = 50 + rng.below(350);
  const auto p = random_problem(n, static_cast<std::size_t>(k), rng);
  ApproScheduler appro;
  const auto plan = appro.plan(p);
  EXPECT_EQ(plan.tours.size(), static_cast<std::size_t>(k));
  const auto schedule = sched::execute_plan(p, plan);
  const auto violations = sched::verify_schedule(p, schedule);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
  EXPECT_TRUE(schedule.all_charged());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ApproProperty,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(1, 2, 4)));

class ApproBoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(ApproBoundProperty, ExecutedDelayWithinEq5Bound) {
  // T'(k) <= T(k) (Section III-C): holds whenever the executor injects no
  // waiting, which is Appro's design goal. When waiting does occur the
  // bound may be exceeded by exactly the waiting time — also checked.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 8887 + 1);
  const std::size_t n = 50 + rng.below(250);
  const auto p = random_problem(n, 2, rng);
  ApproScheduler appro;
  const auto plan = appro.plan(p);
  const auto schedule = sched::execute_plan(p, plan);
  const auto bounds = sched::estimate_tour_bounds(p, plan);
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    double waited = 0.0;
    for (const auto& s : schedule.mcvs[k].sojourns) waited += s.wait();
    EXPECT_LE(schedule.mcvs[k].return_time, bounds[k] + waited + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproBoundProperty, ::testing::Range(0, 8));

TEST(Appro, NearZeroConflictWaiting) {
  // The insertion rule is designed so MCVs (almost) never wait on each
  // other; executed waiting should be a negligible share of the delay.
  Rng rng(17);
  const auto p = random_problem(500, 3, rng);
  ApproScheduler appro;
  const auto schedule = sched::execute_plan(p, appro.plan(p));
  EXPECT_LE(schedule.total_wait(), 0.05 * schedule.longest_delay());
}

TEST(Appro, DenseFieldUsesMultiNodeGain) {
  // In a dense field Appro needs far fewer stops than sensors.
  Rng rng(19);
  const auto p = random_problem(800, 2, rng);
  ApproScheduler appro;
  const auto plan = appro.plan(p);
  EXPECT_LT(plan.total_stops(), 700u);
  const auto schedule = sched::execute_plan(p, plan);
  EXPECT_TRUE(schedule.all_charged());
}

TEST(Appro, DeltaHBoundHolds) {
  // Lemma 2: Delta_H <= ceil(8*pi) = 26.
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    const auto p = random_problem(600, 2, rng);
    ApproScheduler appro;
    ApproStats stats;
    appro.plan_with_stats(p, &stats);
    EXPECT_LE(stats.h_max_degree, 26u);
  }
}

TEST(Appro, CoincidentSensorsHandled) {
  std::vector<geom::Point> pts(20, geom::Point{5.0, 5.0});
  std::vector<double> deficits(20, 1000.0);
  ChargingProblem p(std::move(pts), std::move(deficits), {0, 0}, 2.7, 1.0, 2);
  ApproScheduler appro;
  const auto plan = appro.plan(p);
  EXPECT_EQ(plan.total_stops(), 1u);  // one stop charges all 20
  const auto schedule = sched::execute_plan(p, plan);
  EXPECT_TRUE(schedule.all_charged());
  EXPECT_TRUE(sched::verify_schedule(p, schedule).empty());
}

TEST(Appro, MoreChargersNeverMuchWorse) {
  // Longest delay should broadly decrease in K (splitting is monotone;
  // insertion adds noise, so allow 10% slack).
  Rng rng(29);
  const auto p1 = random_problem(400, 1, rng);
  ApproScheduler appro;
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= 4; ++k) {
    ChargingProblem p(
        std::vector<geom::Point>(p1.positions()),
        std::vector<double>(p1.charge_seconds()), p1.depot(), p1.gamma(),
        p1.speed(), k);
    const auto schedule = sched::execute_plan(p, appro.plan(p));
    EXPECT_LT(schedule.longest_delay(), prev * 1.10);
    prev = std::min(prev, schedule.longest_delay());
  }
}

TEST(ApproGolden, PlanDigestPinned) {
  // One FNV-1a digest over every plan plan_with_stats returns for
  // all-requesting rounds at n = 1..40, 200, 600 and 1200 x K in
  // {1, 2, 5} x uniform and clustered layouts x two budgets: none, and an
  // MCV budget at 0.9x the heaviest planned draw of step 5's uncapped
  // split, which makes the split cut wherever K segments can meet it (and
  // drop the cap where they cannot). The field side scales as
  // 100 m x sqrt(n / 1200), so every size has the density of the paper's
  // hardest point and step 6 has nodes to insert. Only + - * / and sqrt
  // shape the inputs, so the digest does not depend on the libm.
  // Tours and every ApproStats field feed the digest.
  std::uint64_t digest = 14695981039346656037ULL;
  const auto mix = [&digest](std::uint64_t word, int bytes) {
    for (int byte = 0; byte < bytes; ++byte) {
      digest = (digest ^ ((word >> (8 * byte)) & 0xffu)) * 1099511628211ULL;
    }
  };
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {200, 600, 1200});
  // A travel-heavy MCV: at the default 50 J/m, service dominates every
  // segment's energy as it dominates its delay, so the delay-optimal split
  // already is energy-optimal and a cap below it is infeasible.
  energy::McvBudgetSpec spec;
  spec.move_cost_j_per_m = 2000.0;
  std::size_t budget_cut = 0;
  std::size_t inserted = 0;
  for (const std::size_t n : sizes) {
    for (const bool clustered : {false, true}) {
      Rng rng(9000 + n);
      const double side = 100.0 * std::sqrt(static_cast<double>(n) / 1200.0);
      std::vector<geom::Point> pts;
      if (clustered) {
        pts = testing_layouts::offset_clusters(n, side, side, 5, side / 6.0,
                                               rng);
      } else {
        pts = geom::uniform_field(n, side, side, rng);
      }
      std::vector<double> seconds;
      for (std::size_t i = 0; i < n; ++i) {
        seconds.push_back(rng.uniform(3456.0, 5400.0));
      }
      for (const std::size_t k : {1, 2, 5}) {
        const ChargingProblem p(pts, seconds, {side / 2, side / 2}, 2.7, 1.0,
                                k);
        // Steps 1-5 by hand, to price the uncapped split's segments.
        const auto s_i = graph::maximal_independent_set(charging_graph(p));
        tsp::TourProblem sites;
        sites.depot = p.depot();
        sites.speed = p.speed();
        for (const graph::Vertex i :
             graph::maximal_independent_set(overlap_graph(p, s_i))) {
          sites.sites.push_back(p.position(s_i[i]));
          sites.service.push_back(p.tau(s_i[i]));
        }
        double heaviest_j = 0.0;
        for (const auto& seg : tsp::min_max_k_tours(sites, k).tours) {
          heaviest_j = std::max(
              heaviest_j,
              tsp::tour_travel_time(sites, seg) * spec.move_cost_j_per_m *
                      p.speed() +
                  tsp::tour_service_time(sites, seg) * p.charging_rate_w());
        }
        sched::ChargingPlan free;
        for (const bool budgeted : {false, true}) {
          ApproOptions options;
          if (budgeted) {
            options.mcv_budget = spec;
            options.mcv_budget.capacity_j = 0.9 * heaviest_j;
          }
          ApproStats stats;
          const auto plan = ApproScheduler(options).plan_with_stats(p, &stats);
          if (!budgeted) free = plan;
          if (budgeted && plan.tours != free.tours) ++budget_cut;
          inserted += stats.inserted_case_one + stats.inserted_case_two;
          mix(n, 4);
          mix(k, 4);
          mix(budgeted, 1);
          for (const std::size_t field :
               {stats.v_s, stats.s_i, stats.v_h, stats.h_max_degree,
                stats.inserted_case_one, stats.inserted_case_two,
                stats.dropped_covered}) {
            mix(field, 8);
          }
          ASSERT_EQ(plan.tours.size(), k);
          for (const auto& tour : plan.tours) {
            mix(tour.size(), 4);
            for (const std::uint32_t v : tour) mix(v, 4);
          }
        }
      }
    }
  }
  EXPECT_GT(budget_cut, 0u);
  EXPECT_GT(inserted, 0u);
  EXPECT_EQ(digest, 0x34124a20ca79cca9ULL) << std::hex << digest;
}

}  // namespace
}  // namespace mcharge::core
