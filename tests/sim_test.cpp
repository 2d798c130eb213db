// Tests for the round-based WRSN simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/kminmax.h"
#include "core/appro.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace mcharge::sim {
namespace {

model::WrsnInstance tiny_instance(std::size_t n, std::uint64_t seed) {
  model::NetworkConfig config;
  Rng rng(seed);
  return model::make_instance(config, n, rng);
}

TEST(Simulate, EmptyNetworkNoActivity) {
  model::WrsnInstance instance;
  instance.config = model::NetworkConfig{};
  core::ApproScheduler appro;
  const auto result = simulate(instance, appro);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_DOUBLE_EQ(result.total_dead_seconds, 0.0);
}

TEST(Simulate, NoRequestsWhenDrawIsZero) {
  auto instance = tiny_instance(20, 1);
  for (auto& w : instance.consumption_w) w = 0.0;
  core::ApproScheduler appro;
  const auto result = simulate(instance, appro);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.sensors_charged, 0u);
}

TEST(Simulate, ShortHorizonStopsBeforeFirstRequest) {
  auto instance = tiny_instance(20, 2);
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 60.0;  // one minute: nothing crosses 20%
  const auto result = simulate(instance, appro, config);
  EXPECT_EQ(result.rounds, 0u);
}

TEST(Simulate, ChargingHappensOverAYear) {
  auto instance = tiny_instance(60, 3);
  core::ApproScheduler appro;
  const auto result = simulate(instance, appro);
  EXPECT_GT(result.rounds, 0u);
  EXPECT_GT(result.sensors_charged, 0u);
  EXPECT_EQ(result.verify_violations, 0u);
  EXPECT_GT(result.round_longest_delay_s.mean(), 0.0);
  EXPECT_GE(result.busy_fraction, 0.0);
  EXPECT_LE(result.busy_fraction, 1.0);
}

TEST(Simulate, DeterministicForSameInstance) {
  auto instance = tiny_instance(50, 4);
  core::ApproScheduler appro;
  const auto a = simulate(instance, appro);
  const auto b = simulate(instance, appro);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_DOUBLE_EQ(a.total_dead_seconds, b.total_dead_seconds);
  EXPECT_DOUBLE_EQ(a.round_longest_delay_s.mean(),
                   b.round_longest_delay_s.mean());
}

TEST(Simulate, DeadTimeBoundedByHorizon) {
  auto instance = tiny_instance(40, 5);
  baselines::KMinMaxScheduler kminmax;
  const auto result = simulate(instance, kminmax);
  EXPECT_LE(result.total_dead_seconds,
            40.0 * SimConfig{}.monitoring_period_s + 1.0);
  EXPECT_GE(result.total_dead_seconds, 0.0);
  EXPECT_NEAR(result.mean_dead_minutes_per_sensor,
              result.total_dead_seconds / 40.0 / 60.0, 1e-9);
}

TEST(Simulate, HotterNetworkChargesMore) {
  // Scaling every sensor's draw up should produce at least as many charge
  // events.
  auto cool = tiny_instance(40, 6);
  auto hot = cool;
  for (auto& w : hot.consumption_w) w *= 3.0;
  core::ApproScheduler appro;
  const auto cool_result = simulate(cool, appro);
  const auto hot_result = simulate(hot, appro);
  EXPECT_GT(hot_result.sensors_charged, cool_result.sensors_charged);
}

TEST(Simulate, BatchSizesReasonable) {
  auto instance = tiny_instance(80, 7);
  core::ApproScheduler appro;
  const auto result = simulate(instance, appro);
  EXPECT_GE(result.round_batch_size.min(), 1.0);
  EXPECT_LE(result.round_batch_size.max(), 80.0);
}

TEST(Simulate, PerSensorMetricsConsistent) {
  auto instance = tiny_instance(50, 9);
  core::ApproScheduler appro;
  const auto result = simulate(instance, appro);
  ASSERT_EQ(result.dead_seconds_per_sensor.size(), 50u);
  ASSERT_EQ(result.charges_per_sensor.size(), 50u);
  double dead_sum = 0.0;
  std::size_t charges_sum = 0;
  for (std::size_t v = 0; v < 50; ++v) {
    dead_sum += result.dead_seconds_per_sensor[v];
    charges_sum += result.charges_per_sensor[v];
  }
  EXPECT_NEAR(dead_sum, result.total_dead_seconds, 1e-6);
  EXPECT_EQ(charges_sum, result.sensors_charged);
  EXPECT_GE(result.max_dead_minutes_per_sensor(), 0.0);
}

TEST(Simulate, RoundLogRecordedOnDemand) {
  auto instance = tiny_instance(50, 10);
  core::ApproScheduler appro;
  SimConfig config;
  const auto without = simulate(instance, appro, config);
  EXPECT_TRUE(without.rounds_log.empty());
  config.record_rounds = true;
  const auto with = simulate(instance, appro, config);
  ASSERT_EQ(with.rounds_log.size(), with.rounds);
  double prev_dispatch = -1.0;
  std::size_t charged = 0;
  for (const auto& round : with.rounds_log) {
    EXPECT_GT(round.dispatch_time, prev_dispatch);
    prev_dispatch = round.dispatch_time;
    EXPECT_GE(round.batch, round.charged);
    EXPECT_GE(round.batch, 1u);
    charged += round.charged;
  }
  EXPECT_EQ(charged, with.sensors_charged);
}

TEST(Simulate, EpochPolicyAlignsDispatches) {
  auto instance = tiny_instance(60, 11);
  core::ApproScheduler appro;
  SimConfig config;
  config.dispatch_epoch_s = 86400.0;  // daily fleet departures
  config.record_rounds = true;
  const auto result = simulate(instance, appro, config);
  for (const auto& round : result.rounds_log) {
    const double phase =
        std::fmod(round.dispatch_time, config.dispatch_epoch_s);
    EXPECT_LT(std::min(phase, config.dispatch_epoch_s - phase), 1e-3)
        << "dispatch at " << round.dispatch_time;
  }
}

TEST(Simulate, EpochPolicyBatchesMoreThanOnDemand) {
  auto instance = tiny_instance(80, 12);
  core::ApproScheduler appro;
  SimConfig on_demand;
  SimConfig weekly;
  weekly.dispatch_epoch_s = 7.0 * 86400.0;
  const auto a = simulate(instance, appro, on_demand);
  const auto b = simulate(instance, appro, weekly);
  if (a.rounds > 0 && b.rounds > 0) {
    EXPECT_GE(b.round_batch_size.mean(), a.round_batch_size.mean());
    EXPECT_LE(b.rounds, a.rounds);
  }
}

TEST(Simulate, PartialChargingShortensRoundsButAddsThem) {
  auto instance = tiny_instance(80, 13);
  for (auto& w : instance.consumption_w) w *= 3.0;  // enough activity
  core::ApproScheduler appro;
  SimConfig full;
  SimConfig partial;
  partial.charge_target_fraction = 0.5;
  const auto f = simulate(instance, appro, full);
  const auto p = simulate(instance, appro, partial);
  ASSERT_GT(f.rounds, 0u);
  ASSERT_GT(p.rounds, 0u);
  // Half-charging: sensors come back sooner -> more charge events.
  EXPECT_GT(p.sensors_charged, f.sensors_charged);
  // Each visit transfers less energy, so rounds are shorter on average.
  EXPECT_LT(p.round_longest_delay_s.mean(), f.round_longest_delay_s.mean());
}

TEST(Simulate, FullTargetMatchesDefaultBehaviour) {
  auto instance = tiny_instance(40, 14);
  core::ApproScheduler appro;
  SimConfig a;
  SimConfig b;
  b.charge_target_fraction = 1.0;
  const auto ra = simulate(instance, appro, a);
  const auto rb = simulate(instance, appro, b);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_DOUBLE_EQ(ra.total_dead_seconds, rb.total_dead_seconds);
}

TEST(Simulate, MonthlyDeadBucketsSumToTotal) {
  auto instance = tiny_instance(80, 17);
  for (auto& w : instance.consumption_w) w *= 6.0;  // force saturation
  instance.config.num_chargers = 1;
  core::ApproScheduler appro;
  const auto result = simulate(instance, appro);
  ASSERT_EQ(result.dead_seconds_by_month.size(), 13u);  // ceil(365/30)
  double sum = 0.0;
  for (double s : result.dead_seconds_by_month) {
    EXPECT_GE(s, 0.0);
    // A 30-day bucket holds at most 30 days per sensor.
    EXPECT_LE(s, 80.0 * 30.0 * 86400.0 + 1.0);
    sum += s;
  }
  EXPECT_NEAR(sum, result.total_dead_seconds,
              1e-6 * std::max(1.0, result.total_dead_seconds));
}

TEST(Simulate, SaturatedFleetDeadTimeGrowsOverTheYear) {
  auto instance = tiny_instance(120, 18);
  for (auto& w : instance.consumption_w) w *= 6.0;
  instance.config.num_chargers = 1;
  core::ApproScheduler appro;
  const auto result = simulate(instance, appro);
  const auto& buckets = result.dead_seconds_by_month;
  ASSERT_GE(buckets.size(), 12u);
  // Late-year months carry far more dead time than the first month (the
  // backlog builds).
  const double early = buckets[0] + buckets[1];
  const double late = buckets[9] + buckets[10];
  EXPECT_GT(late, early);
}

TEST(Simulate, RequestLatencyTracked) {
  auto instance = tiny_instance(60, 15);
  core::ApproScheduler appro;
  const auto result = simulate(instance, appro);
  ASSERT_GT(result.sensors_charged, 0u);
  // One latency sample per completed charge (within the horizon).
  EXPECT_EQ(result.request_latency_s.count(), result.sensors_charged);
  // Latency is at least the travel+charge floor (> 0) and bounded by the
  // horizon.
  EXPECT_GT(result.request_latency_s.min(), 0.0);
  EXPECT_LT(result.request_latency_s.max(),
            SimConfig{}.monitoring_period_s);
}

TEST(Simulate, LatencyWorsensWhenFleetShrinks) {
  auto big = tiny_instance(100, 16);
  for (auto& w : big.consumption_w) w *= 4.0;  // load the fleet
  auto small_fleet = big;
  small_fleet.config.num_chargers = 1;
  auto large_fleet = big;
  large_fleet.config.num_chargers = 4;
  core::ApproScheduler appro;
  const auto slow = simulate(small_fleet, appro);
  const auto fast = simulate(large_fleet, appro);
  EXPECT_GT(slow.request_latency_s.mean(), fast.request_latency_s.mean());
}

TEST(SnapDispatchToEpoch, BoundaryAndMidEpochCases) {
  // Exactly on a boundary: stays put.
  EXPECT_DOUBLE_EQ(86400.0, snap_dispatch_to_epoch(86400.0, 86400.0, 0.0));
  // A hair above a boundary from lazy-update FP noise, fleet home long
  // before: the 1e-12 fudge keeps the dispatch from slipping a whole
  // epoch.
  EXPECT_DOUBLE_EQ(86400.0,
                   snap_dispatch_to_epoch(86400.0 + 1e-9, 86400.0, 0.0));
  // Mid-epoch: the next boundary.
  EXPECT_DOUBLE_EQ(172800.0,
                   snap_dispatch_to_epoch(100000.0, 86400.0, 90000.0));
}

TEST(SnapDispatchToEpoch, NeverDispatchesBeforeFleetReturn) {
  // Regression: the fleet returns a hair *after* an epoch boundary —
  // closer than the 1e-12 relative fudge — so the fudged ceil rounds the
  // dispatch DOWN onto that boundary, i.e. before the fleet is home.
  const double epoch = 86400.0;
  const double fleet_ready = 86400.0 + 1e-8;
  const double snapped = snap_dispatch_to_epoch(fleet_ready, epoch,
                                                fleet_ready);
  EXPECT_GE(snapped, fleet_ready);
  EXPECT_DOUBLE_EQ(2.0 * epoch, snapped);
}

TEST(Simulate, InitialLevelBelowThresholdClampsRequestTime) {
  // Regression: sensors that START below the request threshold never
  // crossed it, so reconstructing the crossing from the linear draw lands
  // before t = 0. With a slow draw the un-clamped reconstruction is
  // minus (threshold - level) / draw ~ -1.08e6 s, inflating every
  // first-round latency sample past the 2-day horizon.
  auto instance = tiny_instance(30, 19);
  for (auto& w : instance.consumption_w) w = 1e-3;
  core::ApproScheduler appro;
  SimConfig config;
  config.initial_level_fraction = 0.1;  // below the 20% threshold
  config.monitoring_period_s = 2.0 * 86400.0;
  const auto result = simulate(instance, appro, config);
  ASSERT_GT(result.sensors_charged, 0u);
  EXPECT_GT(result.request_latency_s.min(), 0.0);
  EXPECT_LE(result.request_latency_s.max(), config.monitoring_period_s);
}

TEST(Simulate, BusyFractionMatchesRoundsLogWithCensoredRound) {
  // busy_fraction semantics: sum over rounds of min(d + D, T_M) - d.
  // Saturate a one-MCV fleet so rounds run back to back and the final
  // round is still out at the horizon (the censored case).
  auto instance = tiny_instance(80, 20);
  for (auto& w : instance.consumption_w) w *= 6.0;
  instance.config.num_chargers = 1;
  core::ApproScheduler appro;
  SimConfig config;
  config.record_rounds = true;
  config.monitoring_period_s = 40.0 * 86400.0;
  const auto result = simulate(instance, appro, config);
  ASSERT_GT(result.rounds, 0u);
  const auto& last = result.rounds_log.back();
  ASSERT_GT(last.dispatch_time + last.longest_delay_s,
            config.monitoring_period_s)
      << "fleet not saturated; the censored-round case is untested";
  double busy = 0.0;
  for (const auto& round : result.rounds_log) {
    if (round.longest_delay_s > 0.0) {
      busy += std::min(round.dispatch_time + round.longest_delay_s,
                       config.monitoring_period_s) -
              round.dispatch_time;
    }
  }
  // A censored round still covers the horizon: the denominator stays T_M.
  EXPECT_EQ(result.truncated_reason, TruncationReason::kHorizonMidRound);
  EXPECT_DOUBLE_EQ(busy / config.monitoring_period_s, result.busy_fraction);
  EXPECT_LE(result.busy_fraction, 1.0);
}

TEST(Simulate, BusyFractionScalesByElapsedTimeOnMaxRoundsTruncation) {
  // A run cut off by the round budget has only simulated the prefix up to
  // the fleet's last return; dividing its busy seconds by the full-year
  // horizon would report near-zero utilization for a fleet that was in
  // fact out almost continuously.
  auto instance = tiny_instance(80, 22);
  for (auto& w : instance.consumption_w) w *= 6.0;  // saturate one MCV
  instance.config.num_chargers = 1;
  core::ApproScheduler appro;
  SimConfig config;
  config.record_rounds = true;
  config.max_rounds = 6;  // stop long before the year ends
  const auto result = simulate(instance, appro, config);
  ASSERT_EQ(result.rounds, 6u);
  ASSERT_EQ(result.truncated_reason, TruncationReason::kMaxRounds);
  const double horizon = config.monitoring_period_s;
  double busy = 0.0;
  double ready = 0.0;  // the fleet's availability instant after each round
  for (const auto& round : result.rounds_log) {
    if (round.longest_delay_s > 0.0) {
      busy += std::min(round.dispatch_time + round.longest_delay_s, horizon) -
              round.dispatch_time;
      ready = round.dispatch_time + round.longest_delay_s;
    } else {
      ready = round.dispatch_time + kEmptyRoundBackoffS;
    }
  }
  ASSERT_GT(busy, 0.0);
  ASSERT_LT(ready, horizon) << "instance ran the full horizon; the "
                               "kMaxRounds case is untested";
  // The denominator is the elapsed simulated time (the fleet's last
  // return), not the full horizon the run never reached.
  EXPECT_DOUBLE_EQ(result.busy_fraction, busy / std::min(ready, horizon));
  EXPECT_GT(result.busy_fraction, busy / horizon);
  EXPECT_LE(result.busy_fraction, 1.0);
}

namespace {
/// Scheduler that plans nothing: every round is degenerate, exercising
/// the empty-round backoff path.
class NoOpScheduler : public sched::Scheduler {
 public:
  std::string name() const override { return "NoOp"; }
  sched::ChargingPlan plan(const model::ChargingProblem&) const override {
    return {};
  }
};
}  // namespace

TEST(Simulate, EmptyRoundBackoffIsIdleNotBusy) {
  auto instance = tiny_instance(20, 21);
  NoOpScheduler noop;
  SimConfig config;
  config.max_rounds = 5;  // the no-op scheduler would spin forever
  const auto result = simulate(instance, noop, config);
  EXPECT_EQ(result.rounds, 5u);
  EXPECT_EQ(result.sensors_charged, 0u);
  // Degenerate rounds contribute no busy time.
  EXPECT_DOUBLE_EQ(result.busy_fraction, 0.0);
}

TEST(Simulate, RespectsMaxRounds) {
  auto instance = tiny_instance(30, 8);
  core::ApproScheduler appro;
  SimConfig config;
  config.max_rounds = 2;
  const auto result = simulate(instance, appro, config);
  EXPECT_LE(result.rounds, 2u);
}

}  // namespace
}  // namespace mcharge::sim
