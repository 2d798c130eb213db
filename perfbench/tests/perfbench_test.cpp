// Tests for the benchmark itself: the scheduler wrapper, the percentile
// helper, and the seed contract of the workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/appro.h"
#include "runs.h"
#include "timed_scheduler.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mcharge;

model::ChargingProblem small_problem(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<geom::Point> pos;
  std::vector<double> secs;
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    secs.push_back(rng.uniform(600.0, 4000.0));
  }
  return model::ChargingProblem(std::move(pos), std::move(secs), {50.0, 50.0},
                                2.7, 1.0, 2);
}

/// Returns a fixed plan with every field set, whatever the problem.
class FixedScheduler final : public sched::Scheduler {
 public:
  std::string name() const override { return "fixed"; }
  sched::ChargingPlan plan(const model::ChargingProblem&) const override {
    sched::ChargingPlan p;
    p.mode = sched::ChargeMode::kOneToOne;
    p.tours = {{3, 1}, {0, 2, 4}};
    p.starts = {{1.5, 2.5}, {3.5, 4.5}};
    return p;
  }
};

void expect_same_plan(const sched::ChargingPlan& a,
                      const sched::ChargingPlan& b) {
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.tours, b.tours);
  ASSERT_EQ(a.starts.size(), b.starts.size());
  for (std::size_t i = 0; i < a.starts.size(); ++i) {
    EXPECT_EQ(a.starts[i].x, b.starts[i].x);
    EXPECT_EQ(a.starts[i].y, b.starts[i].y);
  }
}

TEST(TimedScheduler, ReturnsTheWrappedPlanUnchanged) {
  const FixedScheduler fixed;
  TimedScheduler timed(fixed, /*capture=*/true);
  const auto problem = small_problem(1, 5);
  EXPECT_EQ(timed.name(), "fixed");
  expect_same_plan(timed.plan(problem), fixed.plan(problem));
  expect_same_plan(timed.plan_with_jobs(problem, 3), fixed.plan(problem));
  EXPECT_EQ(timed.call_seconds().size(), 2u);
  EXPECT_EQ(timed.sites(), 10u);
  const auto captured = timed.take_captured();
  ASSERT_EQ(captured.size(), 2u);
  expect_same_plan(captured[0].plan, fixed.plan(problem));
  EXPECT_EQ(captured[1].problem.size(), problem.size());
}

TEST(TimedScheduler, ApproPlansMatchTheUnwrappedScheduler) {
  const core::ApproScheduler appro;
  const TimedScheduler timed(appro, /*capture=*/false);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto problem = small_problem(seed, 80);
    expect_same_plan(timed.plan(problem), appro.plan(problem));
  }
}

TEST(Percentile, PicksTheNearestRankSample) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);  // 1..100
  std::shuffle(samples.begin(), samples.end(), std::mt19937(7));
  EXPECT_EQ(percentile(samples, 0.50), 50.0);
  EXPECT_EQ(percentile(samples, 0.99), 99.0);
  EXPECT_EQ(percentile(samples, 1.00), 100.0);
  EXPECT_EQ(percentile(samples, 0.001), 1.0);
  EXPECT_EQ(percentile({4.0}, 0.99), 4.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({2.0, 1.0}, 0.5), 1.0);
}

TEST(Percentile, CountsSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(1001, 0.99), 10u);  // rank ceil(990.99) = 991
  EXPECT_EQ(samples_beyond(100, 0.50), 50u);
  EXPECT_EQ(samples_beyond(1, 0.99), 0u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
  std::vector<double> samples(1000);
  std::iota(samples.begin(), samples.end(), 1.0);
  EXPECT_EQ(percentile(samples, 0.99), 990.0);
}

/// A workload shrunk to test size, keeping its algorithms and features.
WorkloadSpec shrunk(WorkloadSpec spec) {
  spec.sizes = {spec.sizes.front() == 200 ? 150u : 250u};
  spec.instances_per_size = 3;
  spec.months = 1.0;
  return spec;
}

std::vector<std::string> names(const Report& report) {
  std::vector<std::string> out;
  for (const Metric& m : report.metrics) out.push_back(m.name);
  return out;
}

std::string fact(const Report& report, const std::string& key) {
  for (const auto& [k, v] : report.facts) {
    if (k == key) return v;
  }
  return "";
}

TEST(Workloads, SeedChangesInstancesButNotMetricNames) {
  constexpr double kSeconds = 1e-3;
  for (const WorkloadSpec& full : workload_specs()) {
    SCOPED_TRACE(full.name);
    const WorkloadSpec spec = shrunk(full);
    const Workload a = set_up(spec, 1);
    const Workload b = set_up(spec, 2);
    ASSERT_EQ(a.instances.size(), b.instances.size());
    EXPECT_NE(a.instances[0].positions[0].x, b.instances[0].positions[0].x);
    EXPECT_EQ(a.items.size(), b.items.size());

    const Report e1 = run_end_to_end(spec, 1, kSeconds);
    const Report e2 = run_end_to_end(spec, 2, kSeconds);
    EXPECT_EQ(e1.failed, 0u);
    EXPECT_EQ(e2.failed, 0u);
    EXPECT_EQ(names(e1), names(e2));
    EXPECT_EQ(names(e1).size(), 7u);
    EXPECT_NE(e1.digests, e2.digests);
    // Every simulation passes, but a shrunk workload has too few Appro
    // rounds for a p99: the sample floor is the one failed check.
    for (const Report* e : {&e1, &e2}) {
      EXPECT_FALSE(e->correct());
      ASSERT_EQ(e->failures.size(), 1u);
      EXPECT_NE(e->failures[0].find("appro_plan_p99_ms"), std::string::npos);
    }

    const Report t1 = run_traced(spec, 1, kSeconds);
    const Report t2 = run_traced(spec, 2, kSeconds);
    EXPECT_TRUE(t1.correct());
    EXPECT_TRUE(t2.correct());
    EXPECT_EQ(t1.failed, 0u);
    EXPECT_EQ(t2.failed, 0u);
    EXPECT_EQ(names(t1), names(t2));
    // The untraced pass of the traced run is the same simulation set.
    EXPECT_EQ(t1.digests, e1.digests);
    // Faulty rounds are verified under their fault bundle.
    EXPECT_EQ(fact(t1, "verified_faulty_schedules") != "0", full.faults);
  }
}

TEST(Workloads, ResultLineHasTheContractKeys) {
  Report report;
  report.attempted = 3;
  report.metrics = {{"setup_s", 0.25, "s"}, {"x", 2.0, "count"}};
  EXPECT_EQ(result_json(report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"x\": {\"value\": 2, \"unit\": \"count\"}}}");
}

}  // namespace
}  // namespace perfbench
