// Shared helpers for memcmp-grade SimResult comparison across SIMD
// backends and sweep worker counts. Used by sim_determinism_test.cpp
// (fault-free contract) and sim_fault_test.cpp (fault-stream contract):
// the two suites must agree on what "bit-identical" means, including the
// fault and truncation fields.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/simulation.h"
#include "util/simd.h"
#include "util/stats.h"

#include "simd_backends.h"

namespace mcharge::sim {

/// Bitwise equality for doubles (EXPECT_EQ would treat -0.0 == 0.0 and
/// could be fooled by NaN; the contract is stronger).
inline ::testing::AssertionResult bits_eq(const char* a_expr,
                                          const char* b_expr, double a,
                                          double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a_expr << " and " << b_expr << " differ bitwise: " << a << " vs "
         << b;
}

#define EXPECT_BITS_EQ(a, b) EXPECT_PRED_FORMAT2(::mcharge::sim::bits_eq, a, b)

inline void expect_stats_identical(const RunningStats& a,
                                   const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_BITS_EQ(a.sum(), b.sum());
  EXPECT_BITS_EQ(a.mean(), b.mean());
  EXPECT_BITS_EQ(a.variance(), b.variance());
  EXPECT_BITS_EQ(a.min(), b.min());
  EXPECT_BITS_EQ(a.max(), b.max());
}

inline void expect_results_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.sensors_charged, b.sensors_charged);
  EXPECT_BITS_EQ(a.total_dead_seconds, b.total_dead_seconds);
  EXPECT_BITS_EQ(a.mean_dead_minutes_per_sensor,
                 b.mean_dead_minutes_per_sensor);
  expect_stats_identical(a.round_longest_delay_s, b.round_longest_delay_s);
  expect_stats_identical(a.round_batch_size, b.round_batch_size);
  expect_stats_identical(a.request_latency_s, b.request_latency_s);
  EXPECT_BITS_EQ(a.total_conflict_wait_s, b.total_conflict_wait_s);
  EXPECT_EQ(a.verify_violations, b.verify_violations);
  EXPECT_BITS_EQ(a.busy_fraction, b.busy_fraction);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.truncated_reason, b.truncated_reason);
  EXPECT_EQ(a.mcv_breakdowns, b.mcv_breakdowns);
  EXPECT_EQ(a.sensors_failed, b.sensors_failed);
  EXPECT_EQ(a.recovered_sensors, b.recovered_sensors);
  EXPECT_EQ(a.deferred_sensors, b.deferred_sensors);
  EXPECT_BITS_EQ(a.extra_recovery_delay_s, b.extra_recovery_delay_s);
  EXPECT_EQ(a.mcv_energy_exhausted, b.mcv_energy_exhausted);
  EXPECT_BITS_EQ(a.mcv_energy_spent_j, b.mcv_energy_spent_j);
  EXPECT_BITS_EQ(a.mcv_energy_max_tour_j, b.mcv_energy_max_tour_j);
  ASSERT_EQ(a.dead_seconds_per_sensor.size(),
            b.dead_seconds_per_sensor.size());
  EXPECT_EQ(0, std::memcmp(a.dead_seconds_per_sensor.data(),
                           b.dead_seconds_per_sensor.data(),
                           a.dead_seconds_per_sensor.size() * sizeof(double)));
  ASSERT_EQ(a.charges_per_sensor.size(), b.charges_per_sensor.size());
  EXPECT_EQ(a.charges_per_sensor, b.charges_per_sensor);
  ASSERT_EQ(a.dead_seconds_by_month.size(), b.dead_seconds_by_month.size());
  EXPECT_EQ(0, std::memcmp(a.dead_seconds_by_month.data(),
                           b.dead_seconds_by_month.data(),
                           a.dead_seconds_by_month.size() * sizeof(double)));
  ASSERT_EQ(a.rounds_log.size(), b.rounds_log.size());
  for (std::size_t i = 0; i < a.rounds_log.size(); ++i) {
    EXPECT_BITS_EQ(a.rounds_log[i].dispatch_time,
                   b.rounds_log[i].dispatch_time);
    EXPECT_EQ(a.rounds_log[i].batch, b.rounds_log[i].batch);
    EXPECT_EQ(a.rounds_log[i].charged, b.rounds_log[i].charged);
    EXPECT_BITS_EQ(a.rounds_log[i].longest_delay_s,
                   b.rounds_log[i].longest_delay_s);
    EXPECT_BITS_EQ(a.rounds_log[i].wait_s, b.rounds_log[i].wait_s);
    EXPECT_EQ(a.rounds_log[i].breakdowns, b.rounds_log[i].breakdowns);
    EXPECT_EQ(a.rounds_log[i].recovered, b.rounds_log[i].recovered);
    EXPECT_EQ(a.rounds_log[i].deferred, b.rounds_log[i].deferred);
    EXPECT_BITS_EQ(a.rounds_log[i].extra_delay_s,
                   b.rounds_log[i].extra_delay_s);
    EXPECT_EQ(a.rounds_log[i].energy_aborts, b.rounds_log[i].energy_aborts);
    EXPECT_BITS_EQ(a.rounds_log[i].energy_spent_j,
                   b.rounds_log[i].energy_spent_j);
    EXPECT_BITS_EQ(a.rounds_log[i].energy_max_tour_j,
                   b.rounds_log[i].energy_max_tour_j);
  }
}

}  // namespace mcharge::sim
