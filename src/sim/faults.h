// Deterministic fault injection for the simulator.
//
// A FaultModel turns a FaultConfig into per-round, per-entity fault draws:
//  * per-MCV breakdowns — the vehicle fails at a point along its tour and
//    the remaining sojourns go uncharged (executed via
//    sched::ExecutionFaults in schedule/execute.h);
//  * multiplicative travel-time and charging-time jitter;
//  * permanent sensor death — the sensor drops out of the network for the
//    rest of the run;
//  * transient depot-dispatch delay — the whole fleet leaves late.
//
// Every draw is a pure function of (config.seed, stream tag, round index,
// entity id), hashed through util/rng.h's splitmix64/derive_seed. Nothing
// here keeps mutable state, so fault outcomes are bit-identical for any
// sweep `--jobs` value, SIMD backend, dispatch policy, or call order — the
// same determinism contract the rest of the repo holds. Each fault class is
// independently enabled by its own rate; a config with all rates at zero
// behaves exactly like no fault model at all.
#pragma once

#include <cstdint>

#include "schedule/execute.h"
#include "schedule/plan.h"

namespace mcharge::sim {

/// Knobs of the fault layer. All probabilities are per round (breakdown:
/// per MCV per round; death: per sensor per round). Zero everywhere (the
/// default) disables the layer entirely.
struct FaultConfig {
  std::uint64_t seed = 0;  ///< fault stream seed, independent of sim seed

  /// P[an MCV breaks down somewhere along its tour] per round. The failure
  /// point is uniform over the tour's stops (it may fail before reaching
  /// the first stop).
  double mcv_breakdown_prob = 0.0;
  /// Travel legs are scaled by a factor uniform in [1-j, 1+j). Must be in
  /// [0, 0.9] so legs never shrink to nothing.
  double travel_jitter = 0.0;
  /// Charging durations are scaled by a factor uniform in [1-j, 1+j).
  /// Must be in [0, 0.9].
  double charge_jitter = 0.0;
  /// P[a live sensor dies permanently] per round, evaluated at the round's
  /// start. A dead sensor stops consuming, never requests charging, and is
  /// excluded from coverage/dead-time accounting from that instant on.
  double sensor_death_prob = 0.0;
  /// P[the depot delays this round's dispatch] per round.
  double dispatch_delay_prob = 0.0;
  /// When a dispatch delay fires, its length is uniform in
  /// [0, dispatch_delay_max_s).
  double dispatch_delay_max_s = 0.0;

  bool enabled() const {
    return mcv_breakdown_prob > 0.0 || travel_jitter > 0.0 ||
           charge_jitter > 0.0 || sensor_death_prob > 0.0 ||
           dispatch_delay_prob > 0.0;
  }
};

/// Stateless fault-draw oracle. Cheap to construct; copyable; safe to call
/// concurrently from any number of threads.
class FaultModel {
 public:
  explicit FaultModel(const FaultConfig& config);

  const FaultConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled(); }

  /// True iff MCV `mcv` breaks down during round `round`.
  bool mcv_breaks(std::uint64_t round, std::uint32_t mcv) const;
  /// Number of sojourns MCV `mcv` completes before failing, uniform in
  /// [0, tour_len). Only meaningful when mcv_breaks() is true and
  /// tour_len > 0.
  std::uint32_t breakdown_stop(std::uint64_t round, std::uint32_t mcv,
                               std::uint32_t tour_len) const;
  /// True iff sensor `v` dies at the start of round `round` (given it is
  /// still alive then — the model itself is memoryless).
  bool sensor_dies(std::uint64_t round, std::uint32_t v) const;
  /// Dispatch delay in seconds for round `round` (0 when the delay fault
  /// does not fire).
  double dispatch_delay(std::uint64_t round) const;

  /// Assembles the executor-facing fault bundle for `round` against `plan`:
  /// breakdown_after per tour plus the jitter closures (travel multiplier
  /// in [1-j, 1+j) per (mcv, leg), charging-duration multiplier in
  /// [1-j, 1+j) per location). Fault classes with a
  /// zero rate contribute nothing (no closure installed, no breakdown
  /// entries), so a disabled model yields an empty bundle.
  sched::ExecutionFaults round_faults(std::uint64_t round,
                                      const sched::ChargingPlan& plan) const;

 private:
  FaultConfig config_;
};

}  // namespace mcharge::sim
