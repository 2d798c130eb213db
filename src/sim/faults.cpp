#include "sim/faults.h"

#include "util/assert.h"
#include "util/rng.h"

namespace mcharge::sim {

namespace {

// Stream tags keep the fault classes on statistically independent draw
// sequences even when they share a (round, entity) key.
enum Stream : std::uint64_t {
  kStreamBreakdown = 1,
  kStreamBreakdownAt = 2,
  kStreamTravel = 3,
  kStreamCharge = 4,
  kStreamDeath = 5,
  kStreamDispatch = 6,
};

std::uint64_t draw(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t round, std::uint64_t entity) {
  return derive_seed(derive_seed(seed ^ (stream * 0x9e3779b97f4a7c15ULL),
                                 round),
                     entity);
}

/// Uniform double in [0, 1) from a single hash output.
double u01(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Multiplier uniform in [1-j, 1+j).
double jitter_mult(std::uint64_t bits, double j) {
  return 1.0 + j * (2.0 * u01(bits) - 1.0);
}

}  // namespace

FaultModel::FaultModel(const FaultConfig& config) : config_(config) {
  MCHARGE_ASSERT(config.mcv_breakdown_prob >= 0.0 &&
                     config.mcv_breakdown_prob <= 1.0,
                 "mcv_breakdown_prob must be in [0, 1]");
  MCHARGE_ASSERT(config.travel_jitter >= 0.0 && config.travel_jitter <= 0.9,
                 "travel_jitter must be in [0, 0.9]");
  MCHARGE_ASSERT(config.charge_jitter >= 0.0 && config.charge_jitter <= 0.9,
                 "charge_jitter must be in [0, 0.9]");
  MCHARGE_ASSERT(config.sensor_death_prob >= 0.0 &&
                     config.sensor_death_prob <= 1.0,
                 "sensor_death_prob must be in [0, 1]");
  MCHARGE_ASSERT(config.dispatch_delay_prob >= 0.0 &&
                     config.dispatch_delay_prob <= 1.0,
                 "dispatch_delay_prob must be in [0, 1]");
  MCHARGE_ASSERT(config.dispatch_delay_max_s >= 0.0,
                 "dispatch_delay_max_s must be >= 0");
}

bool FaultModel::mcv_breaks(std::uint64_t round, std::uint32_t mcv) const {
  if (config_.mcv_breakdown_prob <= 0.0) return false;
  return u01(draw(config_.seed, kStreamBreakdown, round, mcv)) <
         config_.mcv_breakdown_prob;
}

std::uint32_t FaultModel::breakdown_stop(std::uint64_t round,
                                         std::uint32_t mcv,
                                         std::uint32_t tour_len) const {
  MCHARGE_ASSERT(tour_len > 0, "breakdown_stop needs a non-empty tour");
  const double u = u01(draw(config_.seed, kStreamBreakdownAt, round, mcv));
  auto stop = static_cast<std::uint32_t>(u * tour_len);
  return stop < tour_len ? stop : tour_len - 1;
}

bool FaultModel::sensor_dies(std::uint64_t round, std::uint32_t v) const {
  if (config_.sensor_death_prob <= 0.0) return false;
  return u01(draw(config_.seed, kStreamDeath, round, v)) <
         config_.sensor_death_prob;
}

double FaultModel::dispatch_delay(std::uint64_t round) const {
  if (config_.dispatch_delay_prob <= 0.0 || config_.dispatch_delay_max_s <= 0.0)
    return 0.0;
  if (u01(draw(config_.seed, kStreamDispatch, round, 0)) >=
      config_.dispatch_delay_prob)
    return 0.0;
  return config_.dispatch_delay_max_s *
         u01(draw(config_.seed, kStreamDispatch, round, 1));
}

sched::ExecutionFaults FaultModel::round_faults(
    std::uint64_t round, const sched::ChargingPlan& plan) const {
  sched::ExecutionFaults faults;
  if (config_.mcv_breakdown_prob > 0.0) {
    bool any = false;
    faults.breakdown_after.assign(plan.tours.size(),
                                  sched::ExecutionFaults::kNoBreakdown);
    for (std::uint32_t k = 0; k < plan.tours.size(); ++k) {
      const auto len = static_cast<std::uint32_t>(plan.tours[k].size());
      if (len == 0 || !mcv_breaks(round, k)) continue;
      faults.breakdown_after[k] = breakdown_stop(round, k, len);
      any = true;
    }
    if (!any) faults.breakdown_after.clear();
  }
  if (config_.travel_jitter > 0.0) {
    // Capture by value: the closure must stay a pure function of its
    // arguments even if this FaultModel goes away.
    const std::uint64_t seed = config_.seed;
    const double j = config_.travel_jitter;
    faults.travel_multiplier = [seed, j, round](std::uint32_t mcv,
                                                std::size_t leg) {
      const std::uint64_t entity = (static_cast<std::uint64_t>(mcv) << 32) |
                                   static_cast<std::uint64_t>(leg);
      return jitter_mult(draw(seed, kStreamTravel, round, entity), j);
    };
  }
  if (config_.charge_jitter > 0.0) {
    const std::uint64_t seed = config_.seed;
    const double j = config_.charge_jitter;
    faults.charge_multiplier = [seed, j, round](std::uint32_t location) {
      return jitter_mult(draw(seed, kStreamCharge, round, location), j);
    };
  }
  return faults;
}

}  // namespace mcharge::sim
