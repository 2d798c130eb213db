// Determinism of the parallel figure-bench harness: the statistics a
// sweep point produces must be byte-identical for every --jobs value.
#include <gtest/gtest.h>

#include <vector>

#include "figure_common.h"

namespace mcharge {
namespace {

bench::SweepSettings small_settings(std::size_t jobs) {
  bench::SweepSettings s;
  s.instances = 3;
  s.months = 0.5;
  s.seed = 7;
  s.jobs = jobs;
  return s;
}

bench::PointResult run_small_sweep(std::size_t jobs, std::size_t n) {
  const auto algorithms = bench::paper_algorithms();
  const auto settings = small_settings(jobs);
  model::NetworkConfig config;
  config.num_chargers = 2;
  return bench::run_point(settings, algorithms, [&](Rng& rng) {
    return model::make_instance(config, n, rng, settings.layout);
  });
}

void expect_identical(const bench::PointResult& a,
                      const bench::PointResult& b) {
  ASSERT_EQ(a.longest_tour_hours.size(), b.longest_tour_hours.size());
  for (std::size_t i = 0; i < a.longest_tour_hours.size(); ++i) {
    // EXPECT_EQ on doubles: bitwise equality is the claim, not closeness.
    EXPECT_EQ(a.longest_tour_hours[i], b.longest_tour_hours[i]);
    EXPECT_EQ(a.dead_minutes[i], b.dead_minutes[i]);
    EXPECT_EQ(a.tour_stddev[i], b.tour_stddev[i]);
    EXPECT_EQ(a.dead_stddev[i], b.dead_stddev[i]);
  }
  EXPECT_EQ(a.violations, b.violations);
}

TEST(ParallelSweep, FourJobsMatchesSerialExactly) {
  const auto serial = run_small_sweep(1, 120);
  const auto parallel = run_small_sweep(4, 120);
  expect_identical(serial, parallel);
}

TEST(ParallelSweep, OddJobCountMatchesSerialExactly) {
  // A job count that does not divide the 15 work items (3 instances x 5
  // algorithms) exercises uneven item-to-thread assignment.
  const auto serial = run_small_sweep(1, 80);
  const auto parallel = run_small_sweep(7, 80);
  expect_identical(serial, parallel);
}

TEST(ParallelSweep, RepeatedParallelRunsAreStable) {
  const auto first = run_small_sweep(4, 80);
  const auto second = run_small_sweep(4, 80);
  expect_identical(first, second);
}

TEST(ParallelSweep, ProducesNonDegenerateStatistics) {
  // Guard against the determinism tests passing vacuously on all-zero
  // output: the simulated tours must have positive duration.
  const auto result = run_small_sweep(2, 120);
  ASSERT_EQ(result.longest_tour_hours.size(), 5u);
  for (double v : result.longest_tour_hours) EXPECT_GT(v, 0.0);
  EXPECT_EQ(result.violations, 0u);
}

}  // namespace
}  // namespace mcharge
