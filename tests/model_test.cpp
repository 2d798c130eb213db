// Tests for the model module: instance generation and ChargingProblem.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "geometry/field.h"
#include "geometry/grid_index.h"
#include "model/charging_problem.h"
#include "model/network.h"
#include "util/rng.h"

#include "offset_clusters.h"
#include "problem_compare.h"

namespace mcharge::model {
namespace {

using testing_problems::as_vector;
using testing_problems::same_problem;

TEST(MakeInstance, PaperDefaultsPopulated) {
  NetworkConfig config;
  Rng rng(1);
  const auto instance = make_instance(config, 500, rng);
  EXPECT_EQ(instance.num_sensors(), 500u);
  EXPECT_EQ(instance.rate_bps.size(), 500u);
  EXPECT_EQ(instance.consumption_w.size(), 500u);
  for (std::size_t v = 0; v < 500; ++v) {
    EXPECT_GE(instance.rate_bps[v], config.rate_min_bps);
    EXPECT_LT(instance.rate_bps[v], config.rate_max_bps);
    EXPECT_GT(instance.consumption_w[v], 0.0);
    EXPECT_GE(instance.positions[v].x, 0.0);
    EXPECT_LE(instance.positions[v].x, config.field_width);
  }
}

TEST(MakeInstance, LayoutsProduceRequestedCount) {
  NetworkConfig config;
  Rng rng(2);
  for (auto layout :
       {FieldLayout::kUniform, FieldLayout::kClustered, FieldLayout::kGrid}) {
    const auto instance = make_instance(config, 123, rng, layout);
    EXPECT_EQ(instance.num_sensors(), 123u);
  }
}

TEST(MakeInstance, DeterministicGivenSeed) {
  NetworkConfig config;
  Rng a(7), b(7);
  const auto x = make_instance(config, 100, a);
  const auto y = make_instance(config, 100, b);
  for (std::size_t v = 0; v < 100; ++v) {
    EXPECT_DOUBLE_EQ(x.positions[v].x, y.positions[v].x);
    EXPECT_DOUBLE_EQ(x.rate_bps[v], y.rate_bps[v]);
    EXPECT_DOUBLE_EQ(x.consumption_w[v], y.consumption_w[v]);
  }
}

TEST(NetworkConfig, ChargeSecondsMatchesPaper) {
  NetworkConfig config;
  // Full battery from empty: 10.8 kJ / 2 W = 1.5 hours (Section VI-A).
  EXPECT_DOUBLE_EQ(config.charge_seconds(config.battery_capacity_j), 5400.0);
}

TEST(MakeInstance, ZeroSensors) {
  NetworkConfig config;
  Rng rng(8);
  const auto instance = make_instance(config, 0, rng);
  EXPECT_EQ(instance.num_sensors(), 0u);
}

// ---------- ChargingProblem ----------

ChargingProblem small_problem() {
  // Three sensors on a line, 2 m apart; gamma = 2.7 covers neighbors but
  // not the two ends of the line (distance 4).
  std::vector<geom::Point> pts{{0, 0}, {2, 0}, {4, 0}};
  std::vector<double> t{100.0, 50.0, 200.0};
  return ChargingProblem(std::move(pts), std::move(t), {1.0, 10.0}, 2.7, 1.0,
                         2);
}

TEST(ChargingProblem, CoverageSets) {
  const auto p = small_problem();
  EXPECT_EQ(as_vector(p.coverage(0)), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(as_vector(p.coverage(1)), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(as_vector(p.coverage(2)), (std::vector<std::uint32_t>{1, 2}));
}

TEST(ChargingProblem, TauIsMaxOverCoverage) {
  const auto p = small_problem();
  EXPECT_DOUBLE_EQ(p.tau(0), 100.0);
  EXPECT_DOUBLE_EQ(p.tau(1), 200.0);
  EXPECT_DOUBLE_EQ(p.tau(2), 200.0);
}

TEST(ChargingProblem, OverlappingPredicate) {
  const auto p = small_problem();
  // 0 and 2 are 4 m apart (> gamma) but share sensor 1 in coverage.
  EXPECT_TRUE(p.overlapping(0, 2));
  EXPECT_TRUE(p.overlapping(0, 1));
  EXPECT_TRUE(p.overlapping(0, 0));
}

TEST(ChargingProblem, NonOverlappingWhenFar) {
  std::vector<geom::Point> pts{{0, 0}, {50, 50}};
  ChargingProblem p(std::move(pts), {10.0, 10.0}, {0, 0}, 2.7, 1.0, 1);
  EXPECT_FALSE(p.overlapping(0, 1));
}

TEST(ChargingProblem, TravelTimes) {
  const auto p = small_problem();
  EXPECT_DOUBLE_EQ(p.travel(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(p.travel_depot(0), std::hypot(1.0, 10.0));
}

TEST(ChargingProblem, SpeedDividesTravel) {
  std::vector<geom::Point> pts{{0, 0}, {10, 0}};
  ChargingProblem p(std::move(pts), {1.0, 1.0}, {0, 0}, 1.0, 2.0, 1);
  EXPECT_DOUBLE_EQ(p.travel(0, 1), 5.0);
}

TEST(ChargingProblem, ResidualLifetimeDefaultsInfinite) {
  auto p = small_problem();
  EXPECT_TRUE(std::isinf(p.residual_lifetime(0)));
  p.set_residual_lifetimes({3.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(p.residual_lifetime(1), 2.0);
}

TEST(ChargingProblem, ChargingRateDefaultAndSetter) {
  auto p = small_problem();
  EXPECT_DOUBLE_EQ(p.charging_rate_w(), 2.0);
  p.set_charging_rate(5.0);
  EXPECT_DOUBLE_EQ(p.charging_rate_w(), 5.0);
}

TEST(ChargingProblem, EmptyProblem) {
  ChargingProblem p({}, {}, {0, 0}, 2.7, 1.0, 2);
  EXPECT_EQ(p.size(), 0u);
}

TEST(ChargingProblem, CoincidentSensorsShareCoverage) {
  std::vector<geom::Point> pts{{5, 5}, {5, 5}};
  ChargingProblem p(std::move(pts), {10.0, 20.0}, {0, 0}, 2.7, 1.0, 1);
  EXPECT_EQ(p.coverage(0).size(), 2u);
  EXPECT_DOUBLE_EQ(p.tau(0), 20.0);
}

TEST(ChargingProblem, FarOutlierSensorIsAccepted) {
  // One sensor 1e12 m out used to size the coverage grid by its bounding
  // box (~1.4e23 cells) and throw; the grid now widens its cell instead.
  ChargingProblem p({{0, 0}, {1, 0}, {1e12, 1e12}}, {1.0, 1.0, 1.0}, {0, 0},
                    2.7, 1.0, 2);
  EXPECT_EQ(as_vector(p.coverage(0)), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(as_vector(p.coverage(1)), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(as_vector(p.coverage(2)), (std::vector<std::uint32_t>{2}));
}

// ---------- CoverageLists: the per-round view ----------

struct Layout {
  std::string name;
  std::vector<geom::Point> points;
  double gamma;
};

/// Uniform and clustered fields, duplicate points at gamma 2.7 and at
/// gamma 0 (duplicates still cover each other), and an integer lattice at
/// gamma 1, whose neighbours sit exactly at distance gamma.
std::vector<Layout> view_layouts() {
  std::vector<Layout> layouts;
  Rng rng(3301);
  layouts.push_back({"uniform", geom::uniform_field(300, 100.0, 100.0, rng),
                     2.7});
  layouts.push_back({"clustered",
                     testing_layouts::offset_clusters(300, 100.0, 100.0, 6,
                                                      5.0, rng),
                     2.7});
  std::vector<geom::Point> dup;
  const auto distinct = geom::uniform_field(40, 20.0, 20.0, rng);
  for (int i = 0; i < 160; ++i) dup.push_back(distinct[rng.below(40)]);
  layouts.push_back({"duplicates", dup, 2.7});
  layouts.push_back({"duplicates-gamma0", dup, 0.0});
  std::vector<geom::Point> lattice;
  for (int x = 0; x < 15; ++x) {
    for (int y = 0; y < 15; ++y) lattice.push_back({double(x), double(y)});
  }
  layouts.push_back({"lattice", lattice, 1.0});
  return layouts;
}

TEST(CoverageLists, RowsAreSortedGridQueries) {
  for (const Layout& l : view_layouts()) {
    const CoverageLists lists(l.points, l.gamma);
    const geom::GridIndex index(l.points, l.gamma > 0.0 ? l.gamma : 1.0);
    ASSERT_EQ(lists.size(), l.points.size()) << l.name;
    for (std::uint32_t v = 0; v < l.points.size(); ++v) {
      ASSERT_EQ(as_vector(lists[v]), index.query_disk(l.points[v], l.gamma))
          << l.name << " v=" << v;
    }
  }
  EXPECT_EQ(CoverageLists({}, 2.7).size(), 0u);
}

TEST(CoverageLists, LatticeNeighboursAtExactlyGamma) {
  const Layout lattice = view_layouts().back();
  ASSERT_EQ(lattice.name, "lattice");
  const CoverageLists lists(lattice.points, lattice.gamma);
  // (1, 1) is id 16: itself plus its four axis neighbours at distance 1.
  EXPECT_EQ(as_vector(lists[16]),
            (std::vector<std::uint32_t>{1, 15, 16, 17, 31}));
}

TEST(CoverageLists, InducedViewEqualsGridBuiltProblem) {
  // Random ascending batches of every size class, from one sensor to the
  // whole set: the problem built on the induced lists must be the one the
  // public constructor builds from the batch's positions.
  std::size_t checked = 0;
  for (const Layout& l : view_layouts()) {
    const std::size_t n = l.points.size();
    const CoverageLists all(l.points, l.gamma);
    std::vector<std::uint32_t> slot(n, CoverageLists::kNoSlot);
    Rng rng(3302);
    std::vector<std::uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    for (int trial = 0; trial < 24; ++trial) {
      const std::size_t m =
          trial == 0 ? 1 : trial == 1 ? n : 1 + rng.below(n);
      rng.shuffle(ids);
      std::vector<std::uint32_t> batch(ids.begin(), ids.begin() + m);
      std::sort(batch.begin(), batch.end());
      std::vector<geom::Point> pts;
      std::vector<double> secs;
      for (std::uint32_t v : batch) {
        pts.push_back(l.points[v]);
        secs.push_back(rng.uniform(0.0, 5000.0));
      }
      const ChargingProblem want(pts, secs, {50.0, 50.0}, l.gamma, 5.0, 2);
      const ChargingProblem got(pts, secs, all.induced(batch, slot),
                                {50.0, 50.0}, l.gamma, 5.0, 2);
      ASSERT_TRUE(same_problem(got, want))
          << l.name << " trial=" << trial << " m=" << m;
      ASSERT_TRUE(std::all_of(slot.begin(), slot.end(), [](std::uint32_t s) {
        return s == CoverageLists::kNoSlot;
      })) << l.name << ": slot scratch not restored";
      ++checked;
    }
  }
  EXPECT_EQ(checked, 5u * 24u);
}

}  // namespace
}  // namespace mcharge::model
