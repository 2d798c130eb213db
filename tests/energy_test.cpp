// Tests for the energy module: MCV battery, radio model, routing tree,
// consumption rates.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "energy/consumption.h"
#include "energy/mcv_battery.h"
#include "energy/radio.h"
#include "energy/routing.h"
#include "geometry/field.h"
#include "offset_clusters.h"
#include "routing_oracle.h"
#include "util/rng.h"

namespace mcharge::energy {
namespace {

// ---------- MCV battery ----------

TEST(McvBattery, DisabledSpecAlwaysAffords) {
  McvBudgetSpec spec;  // capacity 0 = disabled
  EXPECT_FALSE(spec.enabled());
  McvBattery b(spec);
  EXPECT_TRUE(b.draw(1e12));
  EXPECT_TRUE(b.draw(0.0));
  EXPECT_DOUBLE_EQ(b.spent(), 0.0);
}

TEST(McvBattery, CostModel) {
  // The one locomotion cost the executor, verifier, energy_use and AA read.
  EXPECT_EQ(kMoveCostJPerM, 50.0);
}

TEST(McvBattery, DrawIsAllOrNothing) {
  McvBudgetSpec spec;
  spec.capacity_j = 100.0;
  McvBattery b(spec);
  EXPECT_TRUE(b.draw(60.0));
  EXPECT_DOUBLE_EQ(b.level(), 40.0);
  // Unaffordable: refused, level untouched.
  EXPECT_FALSE(b.draw(40.1));
  EXPECT_DOUBLE_EQ(b.level(), 40.0);
  EXPECT_DOUBLE_EQ(b.spent(), 60.0);
  // Exactly affordable: drains to zero.
  EXPECT_TRUE(b.draw(40.0));
  EXPECT_DOUBLE_EQ(b.level(), 0.0);
  EXPECT_FALSE(b.draw(1e-9));
  EXPECT_TRUE(b.draw(0.0));
}

TEST(McvBattery, ResumeSeedsLevel) {
  McvBudgetSpec spec;
  spec.capacity_j = 100.0;
  McvBattery b(spec);
  b.set_level(25.0);
  EXPECT_DOUBLE_EQ(b.spent(), 75.0);
  EXPECT_FALSE(b.draw(30.0));
  EXPECT_TRUE(b.draw(25.0));
}

TEST(McvBatteryDeathTest, BadSpecAborts) {
  McvBudgetSpec spec;
  spec.capacity_j = -1.0;
  EXPECT_DEATH(McvBattery{spec}, "mcharge assertion failed");
}

TEST(McvBatteryDeathTest, BadResumeLevelAborts) {
  McvBudgetSpec spec;
  spec.capacity_j = 100.0;
  McvBattery b(spec);
  EXPECT_DEATH(b.set_level(-1.0), "mcharge assertion failed");
  EXPECT_DEATH(b.set_level(101.0), "mcharge assertion failed");
}

// ---------- Radio ----------

TEST(Radio, PerBitEnergies) {
  RadioParams r;
  EXPECT_DOUBLE_EQ(r.tx_per_bit(0.0), r.e_elec);
  EXPECT_DOUBLE_EQ(r.tx_per_bit(10.0), r.e_elec + r.e_amp * 100.0);
  EXPECT_DOUBLE_EQ(r.rx_per_bit(), r.e_elec);
  EXPECT_GT(r.tx_per_bit(20.0), r.tx_per_bit(10.0));
}

// ---------- Routing ----------

TEST(Routing, SingleSensorDirect) {
  RadioParams radio;
  const auto tree =
      build_routing_tree({{10.0, 0.0}}, {0.0, 0.0}, radio, {1000.0});
  ASSERT_EQ(tree.parent.size(), 1u);
  EXPECT_EQ(tree.parent[0], RoutingTree::kToBaseStation);
  EXPECT_EQ(tree.hops[0], 1u);
  EXPECT_DOUBLE_EQ(tree.link_length[0], 10.0);
  EXPECT_DOUBLE_EQ(tree.relay_rate_bps[0], 0.0);
}

TEST(Routing, ChainRelaysAccumulate) {
  RadioParams radio;
  radio.comm_range = 12.0;
  // Chain at x = 10, 20, 30; BS at origin. Only the first is within range
  // of the BS; each next hops through the previous.
  const std::vector<geom::Point> pts{{10, 0}, {20, 0}, {30, 0}};
  const std::vector<double> rates{100.0, 200.0, 400.0};
  const auto tree = build_routing_tree(pts, {0, 0}, radio, rates);
  EXPECT_EQ(tree.parent[0], RoutingTree::kToBaseStation);
  EXPECT_EQ(tree.parent[1], 0u);
  EXPECT_EQ(tree.parent[2], 1u);
  EXPECT_EQ(tree.hops[2], 3u);
  EXPECT_DOUBLE_EQ(tree.relay_rate_bps[2], 0.0);
  EXPECT_DOUBLE_EQ(tree.relay_rate_bps[1], 400.0);
  EXPECT_DOUBLE_EQ(tree.relay_rate_bps[0], 600.0);
  EXPECT_EQ(tree.direct_fallbacks, 0u);
}

TEST(Routing, DisconnectedFallsBackToDirectUplink) {
  RadioParams radio;
  radio.comm_range = 5.0;
  const std::vector<geom::Point> pts{{3, 0}, {90, 90}};
  const auto tree = build_routing_tree(pts, {0, 0}, radio, {1.0, 1.0});
  EXPECT_EQ(tree.parent[1], RoutingTree::kToBaseStation);
  EXPECT_EQ(tree.direct_fallbacks, 1u);
  EXPECT_NEAR(tree.link_length[1], std::hypot(90.0, 90.0), 1e-9);
}

TEST(Routing, ConservationOfTraffic) {
  // Sum of traffic entering the BS equals the sum of all data rates.
  Rng rng(8);
  RadioParams radio;
  const auto pts = geom::uniform_field(300, 100.0, 100.0, rng);
  std::vector<double> rates(pts.size());
  for (auto& r : rates) r = rng.uniform(1e3, 50e3);
  const auto tree = build_routing_tree(pts, {50, 50}, radio, rates);
  double into_bs = 0.0;
  double total = 0.0;
  for (std::size_t v = 0; v < pts.size(); ++v) {
    total += rates[v];
    if (tree.parent[v] == RoutingTree::kToBaseStation) {
      into_bs += rates[v] + tree.relay_rate_bps[v];
    }
  }
  EXPECT_NEAR(into_bs, total, total * 1e-12);
}

TEST(Routing, HopsMonotoneAlongParents) {
  Rng rng(9);
  RadioParams radio;
  const auto pts = geom::uniform_field(200, 100.0, 100.0, rng);
  std::vector<double> rates(pts.size(), 1000.0);
  const auto tree = build_routing_tree(pts, {50, 50}, radio, rates);
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (tree.parent[v] != RoutingTree::kToBaseStation) {
      EXPECT_EQ(tree.hops[v], tree.hops[tree.parent[v]] + 1);
      EXPECT_LE(tree.link_length[v], radio.comm_range + 1e-9);
    }
  }
}

// Every RoutingTree field equals the frozen visit_disk BFS's; doubles are
// compared by bit pattern.
void expect_same_tree(const RoutingTree& got, const RoutingTree& want,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.parent, want.parent);
  EXPECT_EQ(got.hops, want.hops);
  ASSERT_EQ(got.link_length.size(), want.link_length.size());
  ASSERT_EQ(got.relay_rate_bps.size(), want.relay_rate_bps.size());
  for (std::size_t v = 0; v < got.link_length.size(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.link_length[v]),
              std::bit_cast<std::uint64_t>(want.link_length[v]))
        << "link_length of sensor " << v;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.relay_rate_bps[v]),
              std::bit_cast<std::uint64_t>(want.relay_rate_bps[v]))
        << "relay_rate_bps of sensor " << v;
  }
  EXPECT_EQ(got.direct_fallbacks, want.direct_fallbacks);
}

TEST(Routing, DrainedBfsMatchesFrozenTree) {
  RadioParams radio;  // comm_range 15 m, the instance default
  struct Case {
    std::string label;
    std::vector<geom::Point> pts;
    geom::Point bs;
  };
  std::vector<Case> cases;
  const geom::Point center{50.0, 50.0};
  for (const std::size_t n : {0, 1, 2, 200, 2000}) {
    Rng rng(4100 + n);
    const std::string size = std::to_string(n);
    cases.push_back(
        {"uniform/" + size, geom::uniform_field(n, 100.0, 100.0, rng), center});
    cases.push_back({"clustered/" + size,
                     testing_layouts::offset_clusters(n, 100.0, 100.0, 4,
                                                      12.0, rng),
                     center});
    cases.push_back(
        {"grid/" + size, geom::grid_field(n, 100.0, 100.0, 0.2, rng), center});
  }
  {
    // Six-figure-n shape: 20 000 sensors at the paper's n = 1200 density.
    Rng rng(4199);
    const double side = 100.0 * std::sqrt(20000.0 / 1200.0);
    cases.push_back({"uniform/20000",
                     geom::uniform_field(20000, side, side, rng),
                     {side / 2, side / 2}});
  }
  {
    Rng rng(4201);
    auto pts = geom::uniform_field(300, 100.0, 100.0, rng);
    pts.push_back({1e9, 1e9});  // widens the grid cell, falls back
    cases.push_back({"far outlier", pts, center});
  }
  {
    Rng rng(4202);
    auto pts = geom::uniform_field(150, 100.0, 100.0, rng);
    const auto copy = pts;
    pts.insert(pts.end(), copy.begin(), copy.end());
    cases.push_back({"duplicates", pts, center});
    cases.push_back(
        {"all coincident", std::vector<geom::Point>(60, {30.0, 70.0}), center});
  }
  {
    Rng rng(4203);
    cases.push_back({"base station outside",
                     geom::uniform_field(400, 100.0, 100.0, rng),
                     {-20.0, 50.0}});
  }
  {
    // An island 400 m away: its sensors reach each other but never the
    // base station, so every one of them takes the direct fallback.
    Rng rng(4204);
    auto pts = geom::uniform_field(300, 100.0, 100.0, rng);
    for (const geom::Point& p : geom::uniform_field(80, 30.0, 30.0, rng)) {
      pts.push_back({p.x + 500.0, p.y + 500.0});
    }
    cases.push_back({"disconnected island", pts, center});
  }
  {
    // Lattice pitch equal to comm_range: every link sits exactly on the
    // inclusive boundary (the coordinates are exact multiples of 15).
    std::vector<geom::Point> pts;
    for (int i = 0; i < 12; ++i) {
      for (int j = 0; j < 12; ++j) {
        pts.push_back({15.0 * i, 15.0 * j});
      }
    }
    cases.push_back({"lattice at comm_range", pts, {0.0, -15.0}});
  }
  std::size_t fallbacks = 0;
  for (const Case& c : cases) {
    Rng rng(4300 + c.pts.size());
    std::vector<double> rates(c.pts.size());
    for (auto& r : rates) r = rng.uniform(1e3, 50e3);
    const RoutingTree want = oracle::min_hop_tree(c.pts, c.bs, radio, rates);
    expect_same_tree(build_routing_tree(c.pts, c.bs, radio, rates), want,
                     c.label);
    fallbacks += want.direct_fallbacks;
  }
  // The corpus reaches the fallback path.
  EXPECT_GE(fallbacks, 81u);
}

// ---------- Consumption ----------

TEST(Consumption, LeafFormulaExact) {
  RadioParams radio;
  const std::vector<geom::Point> pts{{10.0, 0.0}};
  const std::vector<double> rates{1000.0};
  const auto watts = consumption_watts(pts, {0, 0}, radio, rates);
  const double expected = radio.idle_watts + radio.sense_per_bit() * 1000.0 +
                          radio.tx_per_bit(10.0) * 1000.0;
  ASSERT_EQ(watts.size(), 1u);
  EXPECT_NEAR(watts[0], expected, 1e-15);
}

TEST(Consumption, RelayNodesDrawMore) {
  RadioParams radio;
  radio.comm_range = 12.0;
  const std::vector<geom::Point> pts{{10, 0}, {20, 0}, {30, 0}};
  const std::vector<double> rates{1000.0, 1000.0, 1000.0};
  const auto watts = consumption_watts(pts, {0, 0}, radio, rates);
  // Node 0 relays two nodes' traffic, node 1 one, node 2 none.
  EXPECT_GT(watts[0], watts[1]);
  EXPECT_GT(watts[1], watts[2]);
}

TEST(Consumption, MagnitudesAreRealistic) {
  // With the paper's parameters the depletion time from full (10.8 kJ) to
  // the 20% threshold should be days-to-months, giving plausible request
  // cadences over a one-year horizon.
  Rng rng(12);
  RadioParams radio;
  const auto pts = geom::uniform_field(1000, 100.0, 100.0, rng);
  std::vector<double> rates(pts.size());
  for (auto& r : rates) r = rng.uniform(1e3, 50e3);
  const auto watts = consumption_watts(pts, {50, 50}, radio, rates);
  const double usable = 0.8 * 10.8e3;
  double min_days = 1e18, max_days = 0.0;
  for (double w : watts) {
    ASSERT_GT(w, 0.0);
    const double days = usable / w / 86400.0;
    min_days = std::min(min_days, days);
    max_days = std::max(max_days, days);
  }
  EXPECT_GT(min_days, 0.3);    // nothing dies within an hour
  EXPECT_LT(min_days, 30.0);   // hot sensors do need charging within a month
  EXPECT_GT(max_days, 10.0);
}

}  // namespace
}  // namespace mcharge::energy
