// Tests for the tracing & metrics layer (src/obs) and its central
// contract: observation never changes behavior.
//
// Part 1 exercises the primitives themselves (spans, counters,
// enable scoping, report rendering) — compiled only when the layer is
// built in, since -DMCHARGE_NO_OBS=ON erases the macros by design.
//
// Part 2 asserts the byte-identity contract and compiles in BOTH build
// modes: for every supported SIMD backend x worker count x fault/recovery
// mode, a traced run's SimResult is bit-identical (every scalar, vector,
// stats moment, and RoundLog entry) to the untraced run's, and full Appro
// plans are identical with tracing on vs off. Under MCHARGE_NO_OBS the
// trace flag is inert and the same assertions pin that down.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aa.h"
#include "baselines/kedf.h"
#include "baselines/kminmax.h"
#include "baselines/netwrap.h"
#include "core/appro.h"
#include "geometry/point.h"
#include "matching/matching.h"
#include "model/charging_problem.h"
#include "model/network.h"
#include "obs/obs.h"
#include "sim/faults.h"
#include "sim/simulation.h"
#include "sim_compare.h"
#include "tsp/split.h"
#include "util/rng.h"
#include "util/simd.h"

namespace mcharge::sim {
namespace {

#ifndef MCHARGE_NO_OBS

/// Finds a metric by name in a captured report; fails the test if absent.
const obs::MetricSnapshot* find_metric(const obs::TraceReport& report,
                                       const std::string& name) {
  for (const auto& m : report.metrics) {
    if (m.name == name) return &m;
  }
  ADD_FAILURE() << "metric not captured: " << name;
  return nullptr;
}

TEST(ObsPrimitives, SpanCounterAccumulate) {
  obs::reset();
  const obs::EnabledScope scope(true);
  for (int i = 0; i < 3; ++i) {
    OBS_SPAN("obs_test.unit.span");
  }
  OBS_COUNT("obs_test.unit.counter", 5);
  OBS_COUNT("obs_test.unit.counter", 7);

  const obs::TraceReport report = obs::capture();
  const auto* span = find_metric(report, "obs_test.unit.span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->kind, obs::Kind::kSpan);
  EXPECT_EQ(span->count, 3u);
  EXPECT_GE(span->total_s, 0.0);

  const auto* counter = find_metric(report, "obs_test.unit.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->kind, obs::Kind::kCounter);
  EXPECT_EQ(counter->count, 2u);
  EXPECT_EQ(counter->value, 12);
}

TEST(ObsPrimitives, DisabledSitesRegisterButStayZero) {
  obs::reset();
  ASSERT_FALSE(obs::enabled());
  OBS_COUNT("obs_test.unit.disabled_counter", 100);
  {
    OBS_SPAN("obs_test.unit.disabled_span");
  }
  const obs::TraceReport report = obs::capture();
  const auto* counter =
      find_metric(report, "obs_test.unit.disabled_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->count, 0u);
  EXPECT_EQ(counter->value, 0);
  const auto* span = find_metric(report, "obs_test.unit.disabled_span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 0u);
}

TEST(ObsPrimitives, EnabledScopeRestoresPriorState) {
  ASSERT_FALSE(obs::enabled());
  {
    const obs::EnabledScope scope(true);
    EXPECT_TRUE(obs::enabled());
    {
      const obs::EnabledScope inner(false);  // no-op scope
      EXPECT_TRUE(obs::enabled());
    }
    EXPECT_TRUE(obs::enabled());
  }
  EXPECT_FALSE(obs::enabled());
}

TEST(ObsPrimitives, ResetZeroesAccumulatorsButKeepsSites) {
  obs::reset();
  {
    const obs::EnabledScope scope(true);
    OBS_COUNT("obs_test.unit.reset_counter", 3);
  }
  obs::reset();
  const obs::TraceReport report = obs::capture();  // outlives `counter`
  const auto* counter = find_metric(report, "obs_test.unit.reset_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->count, 0u);
  EXPECT_EQ(counter->value, 0);
}

TEST(ObsReport, JsonCarriesSchemaAndSortedMetrics) {
  obs::reset();
  {
    const obs::EnabledScope scope(true);
    OBS_COUNT("obs_test.report.metric", 1);
  }
  const obs::TraceReport report = obs::capture();
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": \"mcharge.trace.v1\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("obs_test.report.metric"), std::string::npos);
  for (std::size_t i = 1; i < report.metrics.size(); ++i) {
    EXPECT_LT(report.metrics[i - 1].name, report.metrics[i].name);
  }
  EXPECT_FALSE(report.to_table().empty());
}

TEST(ObsReport, SimulatorPopulatesCoreSpans) {
  // A traced simulation must light up the instrumented subsystems
  // end-to-end: planner phases, the tour substrate's stages, executor,
  // and the simulator's round phases.
  obs::reset();
  Rng rng(5);
  const auto instance = model::make_instance(model::NetworkConfig{}, 60, rng);
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 20.0 * 86400.0;
  config.trace = true;
  const SimResult result = simulate(instance, appro, config);
  ASSERT_GT(result.rounds, 0u);
  const obs::TraceReport report = obs::capture();
  for (const char* name :
       {"appro.plan", "exec.multinode", "sim.round", "sim.problem",
        "sim.execute", "sim.verify", "sim.account", "tsp.construct",
        "tsp.improve_tour", "tsp.split", "tsp.segment_improve"}) {
    const auto* m = find_metric(report, name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_GT(m->count, 0u) << name;
  }
}

TEST(ObsReport, BaselinePlannersPopulatePlanSpans) {
  // Each baseline's plan() carries its own span, so a traced run explains
  // the baselines' planning time from inside the library.
  Rng rng(5);
  const auto instance = model::make_instance(model::NetworkConfig{}, 60, rng);
  const baselines::KEdfScheduler kedf;
  const baselines::NetwrapScheduler netwrap;
  const baselines::AaScheduler aa;
  const std::pair<const sched::Scheduler*, const char*> cases[] = {
      {&kedf, "kedf.plan"}, {&netwrap, "netwrap.plan"}, {&aa, "aa.plan"}};
  for (const auto& [scheduler, span] : cases) {
    obs::reset();
    SimConfig config;
    config.monitoring_period_s = 20.0 * 86400.0;
    config.trace = true;
    const SimResult result = simulate(instance, *scheduler, config);
    ASSERT_GT(result.rounds, 0u) << span;
    const obs::TraceReport report = obs::capture();
    const auto* m = find_metric(report, span);
    ASSERT_NE(m, nullptr) << span;
    EXPECT_GT(m->count, 0u) << span;
  }
}

#endif  // MCHARGE_NO_OBS

// ---------- byte-identity: tracing must never change results ----------

struct FaultMode {
  const char* tag;
  double breakdown_prob;
  core::RecoveryPolicy recovery;
};

FaultConfig identity_faults(double breakdown_prob) {
  FaultConfig f;
  f.seed = 99;
  f.mcv_breakdown_prob = breakdown_prob;
  f.travel_jitter = 0.2;
  f.charge_jitter = 0.2;
  f.dispatch_delay_prob = 0.2;
  f.dispatch_delay_max_s = 1200.0;
  return f;
}

TEST(ObsIdentity, SimResultsByteIdenticalTracedVsUntraced) {
  Rng rng(17);
  const auto instance = model::make_instance(model::NetworkConfig{}, 70, rng);
  core::ApproScheduler appro;

  const FaultMode modes[] = {
      {"fault-free", 0.0, core::RecoveryPolicy::kDefer},
      {"defer", 0.3, core::RecoveryPolicy::kDefer},
      {"graft", 0.3, core::RecoveryPolicy::kGraft},
      {"replan", 0.3, core::RecoveryPolicy::kReplan},
  };
  for (const FaultMode& mode : modes) {
    SimConfig config;
    config.monitoring_period_s = 25.0 * 86400.0;
    config.record_rounds = true;
    config.faults = identity_faults(mode.breakdown_prob);
    config.recovery = mode.recovery;
    for (const simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      config.trace = false;
      const SimResult untraced = simulate(instance, appro, config);
      config.trace = true;
      const SimResult traced = simulate(instance, appro, config);
      SCOPED_TRACE(std::string(mode.tag) + " backend=" +
                   simd::backend_name(b));
      ASSERT_GT(untraced.rounds, 0u);
      expect_results_identical(untraced, traced);
    }
  }
}

TEST(ObsIdentity, PlansIdenticalTracedVsUntraced) {
  Rng rng(23);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < 240; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(3456.0, 5400.0));
  }
  const model::ChargingProblem problem(std::move(pts), std::move(deficits),
                                       {50.0, 50.0}, 2.7, 1.0, 3);

  const core::ApproScheduler appro;
  const baselines::KEdfScheduler kedf;
  const baselines::NetwrapScheduler netwrap;
  const baselines::AaScheduler aa;
  const sched::Scheduler* const schedulers[] = {&appro, &kedf, &netwrap,
                                                &aa};
  for (const sched::Scheduler* scheduler : schedulers) {
    SCOPED_TRACE(scheduler->name());
    const sched::ChargingPlan untraced = scheduler->plan(problem);
    sched::ChargingPlan traced;
    {
      const obs::EnabledScope scope(true);
      traced = scheduler->plan(problem);
    }
    EXPECT_EQ(untraced.mode, traced.mode);
    EXPECT_EQ(untraced.tours, traced.tours);
    EXPECT_EQ(untraced.starts, traced.starts);
  }
}

// The tour substrate's spans (tsp.construct / improve_tour / split /
// segment_improve) sit inside tsp::min_max_k_tours, which both Appro and
// K-minMax plan through: its tours and max delay, and whole K-minMax
// plans, must keep their bits with tracing on.
TEST(ObsIdentity, TourSubstrateIdenticalTracedVsUntraced) {
  for (const std::size_t m : {std::size_t{1}, std::size_t{40},
                              std::size_t{300}}) {
    Rng rng(31 + m);
    tsp::TourProblem tour_problem;
    std::vector<geom::Point> pts;
    std::vector<double> deficits;
    for (std::size_t i = 0; i < m; ++i) {
      const geom::Point p{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
      tour_problem.sites.push_back(p);
      tour_problem.service.push_back(rng.uniform(100.0, 4000.0));
      pts.push_back(p);
      deficits.push_back(rng.uniform(3456.0, 5400.0));
    }
    tour_problem.depot = {50.0, 50.0};
    tour_problem.speed = 2.7;
    const model::ChargingProblem problem(std::move(pts), std::move(deficits),
                                         {50.0, 50.0}, 2.7, 1.0, 3);
    for (const simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      SCOPED_TRACE("m=" + std::to_string(m) + " backend=" +
                   simd::backend_name(b));
      const tsp::SplitResult untraced = tsp::min_max_k_tours(tour_problem, 3);
      const sched::ChargingPlan plan_untraced =
          baselines::KMinMaxScheduler().plan(problem);
      tsp::SplitResult traced;
      sched::ChargingPlan plan_traced;
      {
        const obs::EnabledScope scope(true);
        traced = tsp::min_max_k_tours(tour_problem, 3);
        plan_traced = baselines::KMinMaxScheduler().plan(problem);
      }
      EXPECT_EQ(untraced.tours, traced.tours);
      EXPECT_EQ(std::memcmp(&untraced.max_delay, &traced.max_delay,
                            sizeof(double)),
                0);
      EXPECT_EQ(plan_untraced.mode, plan_traced.mode);
      EXPECT_EQ(plan_untraced.tours, plan_traced.tours);
      EXPECT_EQ(plan_untraced.starts, plan_traced.starts);
    }
  }
}

// blossom.dense_solve wraps the dense core's solve and the sparse engine
// times its rounds with blossom.solve: both engines' matchings must keep
// their bits with tracing on, and the dense span must fire.
TEST(ObsIdentity, BlossomEnginesIdenticalTracedVsUntraced) {
  for (const std::size_t n : {std::size_t{40}, std::size_t{150},
                              std::size_t{400}}) {
    Rng rng(41 + n);
    std::vector<geom::Point> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
    for (const auto engine : {matching::MatchingEngine::kDenseBlossom,
                              matching::MatchingEngine::kSparseBlossom}) {
      matching::MatchingOptions opts;
      opts.engine = engine;
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " engine=" + std::to_string(static_cast<int>(engine)));
      const matching::Matching untraced =
          matching::min_weight_euclidean_matching(pts, opts);
      matching::Matching traced;
      {
#ifndef MCHARGE_NO_OBS
        obs::reset();
#endif
        const obs::EnabledScope scope(true);
        traced = matching::min_weight_euclidean_matching(pts, opts);
#ifndef MCHARGE_NO_OBS
        if (engine == matching::MatchingEngine::kDenseBlossom) {
          const obs::TraceReport report = obs::capture();
          const auto* span = find_metric(report, "blossom.dense_solve");
          ASSERT_NE(span, nullptr);
          EXPECT_EQ(span->count, 1u);
        }
#endif
      }
      EXPECT_EQ(untraced, traced);
    }
  }
}

}  // namespace
}  // namespace mcharge::sim
