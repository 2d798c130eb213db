// Stress / failure-injection suite: extreme and degenerate parameter
// combinations through the full pipeline. Every case must either be
// rejected by a documented precondition (not exercised here) or produce a
// verifier-clean schedule.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "baselines/aa.h"
#include "baselines/greedy_cover.h"
#include "baselines/kedf.h"
#include "baselines/kminmax.h"
#include "baselines/netwrap.h"
#include "core/appro.h"
#include "io/instance_io.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace mcharge {
namespace {

std::vector<const sched::Scheduler*> everyone(
    const core::ApproScheduler& a, const baselines::KMinMaxScheduler& b,
    const baselines::KEdfScheduler& c, const baselines::NetwrapScheduler& d,
    const baselines::AaScheduler& e,
    const baselines::GreedyCoverScheduler& f) {
  return {&a, &b, &c, &d, &e, &f};
}

void expect_clean(const model::ChargingProblem& p, const char* label) {
  const core::ApproScheduler appro;
  const baselines::KMinMaxScheduler kminmax;
  const baselines::KEdfScheduler kedf;
  const baselines::NetwrapScheduler netwrap;
  const baselines::AaScheduler aa;
  const baselines::GreedyCoverScheduler cover;
  for (const auto* algo : everyone(appro, kminmax, kedf, netwrap, aa, cover)) {
    const auto schedule = sched::execute_plan(p, algo->plan(p));
    sched::VerifyOptions opts;
    opts.require_full_coverage = algo->name() != "AA";
    const auto violations = sched::verify_schedule(p, schedule, opts);
    EXPECT_TRUE(violations.empty())
        << label << " / " << algo->name() << ": "
        << (violations.empty() ? "" : violations[0]);
  }
}

TEST(Fuzz, AllSensorsAtOnePoint) {
  std::vector<geom::Point> pts(40, geom::Point{37.0, 81.0});
  std::vector<double> t(40, 2000.0);
  model::ChargingProblem p(std::move(pts), std::move(t), {50, 50}, 2.7, 1.0,
                           3);
  p.set_residual_lifetimes(std::vector<double>(40, 1e4));
  expect_clean(p, "co-located");
}

TEST(Fuzz, ZeroChargingRadiusDegeneratesToOneToOneGeometry) {
  Rng rng(1);
  std::vector<geom::Point> pts;
  std::vector<double> t;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)});
    t.push_back(rng.uniform(100.0, 500.0));
  }
  model::ChargingProblem p(std::move(pts), std::move(t), {25, 25}, 0.0, 1.0,
                           2);
  p.set_residual_lifetimes(std::vector<double>(30, 1e5));
  expect_clean(p, "gamma=0");
}

TEST(Fuzz, HugeRadiusCoversWholeField) {
  Rng rng(2);
  std::vector<geom::Point> pts;
  std::vector<double> t;
  for (int i = 0; i < 50; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    t.push_back(rng.uniform(100.0, 500.0));
  }
  model::ChargingProblem p(std::move(pts), std::move(t), {50, 50}, 500.0, 1.0,
                           2);
  p.set_residual_lifetimes(std::vector<double>(50, 1e5));
  // One stop charges everything; with gamma covering the field every pair
  // of stops conflicts, so multi-node plans must serialize.
  const core::ApproScheduler appro;
  const auto plan = appro.plan(p);
  EXPECT_EQ(plan.total_stops(), 1u);
  expect_clean(p, "gamma=field");
}

TEST(Fuzz, ZeroDeficits) {
  Rng rng(3);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 25; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  model::ChargingProblem p(std::move(pts), std::vector<double>(25, 0.0),
                           {50, 50}, 2.7, 1.0, 2);
  p.set_residual_lifetimes(std::vector<double>(25, 1e5));
  expect_clean(p, "zero-deficit");
}

TEST(Fuzz, ManyChargersFewSensors) {
  model::ChargingProblem p({{10, 10}, {90, 90}}, {500.0, 500.0}, {50, 50},
                           2.7, 1.0, 8);
  p.set_residual_lifetimes({1e4, 1e4});
  expect_clean(p, "K=8,n=2");
}

TEST(Fuzz, ExtremeSpeeds) {
  Rng rng(4);
  for (double speed : {1e-3, 1e3}) {
    std::vector<geom::Point> pts;
    std::vector<double> t;
    for (int i = 0; i < 20; ++i) {
      pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
      t.push_back(rng.uniform(10.0, 100.0));
    }
    model::ChargingProblem p(std::move(pts), std::move(t), {50, 50}, 2.7,
                             speed, 2);
    p.set_residual_lifetimes(std::vector<double>(20, 1e9));
    expect_clean(p, "extreme speed");
  }
}

TEST(Fuzz, DepotFarOutsideField) {
  Rng rng(5);
  std::vector<geom::Point> pts;
  std::vector<double> t;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    t.push_back(rng.uniform(100.0, 1000.0));
  }
  model::ChargingProblem p(std::move(pts), std::move(t), {-500.0, 1200.0},
                           2.7, 1.0, 3);
  p.set_residual_lifetimes(std::vector<double>(30, 1e6));
  expect_clean(p, "far depot");
}

TEST(Fuzz, WildDeficitSpread) {
  // tau_max / tau_min enormous: stresses the insertion bookkeeping.
  Rng rng(6);
  std::vector<geom::Point> pts;
  std::vector<double> t;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)});
    t.push_back(i % 2 == 0 ? 1e-3 : 1e5);
  }
  model::ChargingProblem p(std::move(pts), std::move(t), {30, 30}, 2.7, 1.0,
                           2);
  p.set_residual_lifetimes(std::vector<double>(60, 1e7));
  expect_clean(p, "wild deficits");
}

TEST(Fuzz, RandomizedParameterSweep) {
  for (int trial = 0; trial < 25; ++trial) {
    Rng rng(1000 + static_cast<std::uint64_t>(trial) * 37);
    const std::size_t n = 1 + rng.below(150);
    const std::size_t k = 1 + rng.below(6);
    const double gamma = rng.uniform(0.0, 20.0);
    const double speed = rng.uniform(0.1, 10.0);
    const double field = rng.uniform(10.0, 200.0);
    std::vector<geom::Point> pts;
    std::vector<double> t;
    std::vector<double> life;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(0.0, field), rng.uniform(0.0, field)});
      t.push_back(rng.uniform(0.0, 5000.0));
      life.push_back(rng.uniform(10.0, 1e6));
    }
    model::ChargingProblem p(std::move(pts), std::move(t),
                             {rng.uniform(0.0, field), rng.uniform(0.0, field)},
                             gamma, speed, k);
    p.set_residual_lifetimes(std::move(life));
    expect_clean(p, "random sweep");
  }
}

// ---------- malformed instance/round files ----------
//
// The loaders are the trust boundary for external data: every malformed
// file must come back as nullopt with a non-empty error, never as a crash
// or a silently-wrong instance.

constexpr const char* kGoodConfig =
    "config,100,100,50,50,0,0,10000,2.7,5,1,3,0.2\n";

std::string write_fuzz_file(const std::string& name,
                            const std::string& body) {
  const std::string path = ::testing::TempDir() + "/fuzz_" + name + ".csv";
  std::ofstream out(path);
  out << body;
  return path;
}

void expect_instance_rejected(const std::string& name,
                              const std::string& body) {
  const std::string path = write_fuzz_file(name, body);
  std::string error;
  const auto instance = io::read_instance_csv(path, &error);
  EXPECT_FALSE(instance.has_value()) << name;
  EXPECT_FALSE(error.empty()) << name;
  std::remove(path.c_str());
}

TEST(FuzzIo, MalformedInstanceFilesAreRejected) {
  const std::string good_sensor = "sensor,10,20,5,0.5\n";
  // Short and long sensor rows: a sensor row has exactly 4 values.
  expect_instance_rejected("short_row",
                           std::string(kGoodConfig) + "sensor,10,20,5\n");
  expect_instance_rejected(
      "five_values", std::string(kGoodConfig) + "sensor,0,10,20,5,0.5\n");
  expect_instance_rejected(
      "long_row", std::string(kGoodConfig) + "sensor,0,10,20,5,0.5,99\n");
  // NaN / Inf fields in positions and physics.
  expect_instance_rejected(
      "nan_position", std::string(kGoodConfig) + "sensor,nan,20,5,0.5\n");
  expect_instance_rejected(
      "inf_position", std::string(kGoodConfig) + "sensor,10,inf,5,0.5\n");
  expect_instance_rejected(
      "nan_consumption", std::string(kGoodConfig) + "sensor,10,20,5,nan\n");
  expect_instance_rejected(
      "negative_rate", std::string(kGoodConfig) + "sensor,10,20,-5,0.5\n");
  expect_instance_rejected(
      "nan_config",
      "config,100,100,50,50,0,0,nan,2.7,5,1,3,0.2\n" + good_sensor);
  // Trailing garbage after a number ("1.5abc" must not parse as 1.5).
  expect_instance_rejected(
      "trailing_garbage",
      std::string(kGoodConfig) + "sensor,10abc,20,5,0.5\n");
  // Config-line problems.
  expect_instance_rejected("no_config", good_sensor);
  expect_instance_rejected("dup_config", std::string(kGoodConfig) +
                                             std::string(kGoodConfig) +
                                             good_sensor);
  expect_instance_rejected(
      "zero_speed",
      "config,100,100,50,50,0,0,10000,2.7,5,0,3,0.2\n" + good_sensor);
  expect_instance_rejected(
      "fractional_k",
      "config,100,100,50,50,0,0,10000,2.7,5,1,2.5,0.2\n" + good_sensor);
  expect_instance_rejected(
      "bad_threshold",
      "config,100,100,50,50,0,0,10000,2.7,5,1,3,1.5\n" + good_sensor);
}

TEST(FuzzIo, MalformedRoundFilesAreRejected) {
  const char* cases[][2] = {
      {"short", "10,20\n"},
      {"long", "10,20,500,100,7\n"},
      {"nan_pos", "nan,20,500\n"},
      {"inf_deficit", "10,20,inf\n"},
      {"neg_deficit", "10,20,-500\n"},
      {"nan_lifetime", "10,20,500,nan\n"},
      {"neg_lifetime", "10,20,500,-1\n"},
      {"garbage", "10,20,5x0\n"},
      {"mixed_lifetimes", "10,20,500,100\n30,40,500\n"},
      {"empty", "# mcharge-round v1\n"},
  };
  for (const auto& c : cases) {
    const std::string path = write_fuzz_file(std::string("round_") + c[0],
                                             c[1]);
    std::string error;
    const auto round = io::read_round_csv(path, &error);
    EXPECT_FALSE(round.has_value()) << c[0];
    EXPECT_FALSE(error.empty()) << c[0];
    std::remove(path.c_str());
  }
}

TEST(FuzzIo, InfiniteRoundLifetimeLoads) {
  // +inf lifetime is legal in round files (a sensor that never drains).
  std::string error;
  const std::string rpath =
      write_fuzz_file("round_inf_life", "10,20,500,inf\n");
  const auto round = io::read_round_csv(rpath, &error);
  ASSERT_TRUE(round.has_value()) << error;
  EXPECT_TRUE(std::isinf(round->residual_lifetime_s[0]));
  std::remove(rpath.c_str());
}

TEST(Fuzz, SimulatorSurvivesHarshConfigs) {
  core::ApproScheduler appro;
  model::NetworkConfig config;
  config.request_threshold = 0.5;  // half the fleet always hungry
  config.num_chargers = 1;
  Rng rng(7);
  auto instance = model::make_instance(config, 60, rng);
  for (auto& w : instance.consumption_w) w *= 10.0;  // very hot network
  sim::SimConfig sc;
  sc.monitoring_period_s = 60.0 * 86400.0;
  const auto result = sim::simulate(instance, appro, sc);
  EXPECT_EQ(result.verify_violations, 0u);
  EXPECT_GT(result.rounds, 0u);
  // Conservation: no sensor can be dead longer than the horizon.
  for (double dead : result.dead_seconds_per_sensor) {
    EXPECT_LE(dead, sc.monitoring_period_s + 1.0);
  }
}

}  // namespace
}  // namespace mcharge
