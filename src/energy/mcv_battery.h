// Finite energy budget of a mobile charging vehicle.
//
// The paper assumes every MCV carries enough energy to finish its tour;
// this module makes charger exhaustion a first-class, deterministic
// failure mode instead. The draw model is fixed:
//  * locomotion draws kMoveCostJPerM joules per meter driven;
//  * wireless transfer is lossless: radiating delivered_j joules draws
//    delivered_j from the MCV battery (the transmitter runs for the whole
//    sojourn at the problem's charging rate, so delivered_j is
//    duration * charging_rate_w regardless of how many sensors absorb it);
//  * the MCV recharges to full capacity at the depot between rounds —
//    no battery state crosses a round boundary.
//
// capacity_j == 0 disables the budget entirely: every consumer must then
// take exactly the unbudgeted code path (the repo-wide byte-identity
// contract). All arithmetic here is plain double add/subtract applied in
// tour order, so budgeted results are bit-identical across jobs, SIMD
// backends, and recovery policies.
#pragma once

#include "util/assert.h"

namespace mcharge::energy {

/// MCV locomotion draw per meter driven: the executor's and verifier's
/// budget debits, ChargingSchedule::energy_use and AA's profit test.
inline constexpr double kMoveCostJPerM = 50.0;

/// The capacity of one MCV battery. Plain aggregate so it can ride inside
/// sched::ExecutionFaults and sim::SimConfig by value.
struct McvBudgetSpec {
  /// Usable battery capacity in joules. 0 (the default) = unlimited:
  /// the budget layer is disabled and no energy accounting runs at all.
  double capacity_j = 0.0;

  bool enabled() const { return capacity_j > 0.0; }
};

/// One MCV's battery over one charging round. Starts full (depot
/// recharge); draw() is all-or-nothing so an exhausted vehicle aborts
/// cleanly instead of going energy-negative mid-action.
class McvBattery {
 public:
  explicit McvBattery(const McvBudgetSpec& spec)
      : spec_(spec), level_(spec.capacity_j) {
    MCHARGE_ASSERT(spec.capacity_j >= 0.0,
                   "MCV battery capacity must be >= 0");
  }

  const McvBudgetSpec& spec() const { return spec_; }
  double level() const { return level_; }
  double spent() const { return spec_.capacity_j - level_; }

  /// Resumes a partially executed round (core/replan.h graft): overrides
  /// the depot-fresh level with the energy left after the frozen prefix.
  void set_level(double joules) {
    MCHARGE_ASSERT(joules >= 0.0 && joules <= spec_.capacity_j,
                   "resume level must be within [0, capacity]");
    level_ = joules;
  }

  /// Draws `joules` if the battery can afford it; returns false and leaves
  /// the level untouched otherwise. With a disabled spec every draw
  /// succeeds and nothing is tracked.
  bool draw(double joules) {
    MCHARGE_ASSERT(joules >= 0.0, "MCV battery draw must be >= 0");
    if (!spec_.enabled()) return true;
    if (joules > level_) return false;
    level_ -= joules;
    return true;
  }

 private:
  McvBudgetSpec spec_;
  double level_ = 0.0;
};

}  // namespace mcharge::energy
