// Plan execution: turns a ChargingPlan into a timed ChargingSchedule.
//
// One event loop serves both charge modes; the plan's mode decides only
// which sensors a stop charges and whether the MCV waits for conflicts.
//  * Multi-node (the paper's scheme): an MCV parked at v charges every
//    not-yet-charged sensor in N_c+(v) for tau'(v) = max t_u over that set
//    (Eq. (3)) — zero if everything in range was already charged — and
//    waits at v while starting would energize a sensor inside another
//    MCV's active charging disk (the no-overlap constraint). A plan from
//    algorithm Appro incurs (near-)zero waiting; the executor makes any
//    plan feasible and measurable.
//  * One-to-one (the baselines' scheme): the MCV charges only the sensor
//    it parks at, for t_v seconds, and never waits (no cross-charger
//    interference by assumption).
// Events run in global time order (ties by MCV id), so the result is
// deterministic and, for multi-node, pairwise conflict-free.
//
// Failure-aware execution, in both modes: an ExecutionFaults bundle
// injects per-MCV mid-tour breakdowns (the tour truncates; remaining stops
// are recorded as skipped and their sensors stay uncharged), travel /
// charging-time jitter and an energy budget. The default empty bundle
// applies no multiplier and meters no energy.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "energy/mcv_battery.h"
#include "model/charging_problem.h"
#include "schedule/plan.h"

namespace mcharge::sched {

/// Deterministic per-round fault inputs for one plan execution, in either
/// charge mode. The multiplier callbacks MUST be pure functions of their
/// arguments (the repo-wide determinism contract): sim::FaultModel derives
/// them from splitmix64 streams keyed by (seed, round, entity). The
/// executor may call a multiplier more than once for the same argument
/// (an arrival is re-derived after the event loop; a stop that charges
/// nothing still draws its charge multiplier).
struct ExecutionFaults {
  static constexpr std::uint32_t kNoBreakdown =
      std::numeric_limits<std::uint32_t>::max();

  /// Per MCV: number of sojourns completed before the vehicle fails
  /// (kNoBreakdown = the tour completes). A value of 0 means the MCV
  /// breaks down at dispatch, before reaching its first stop. Empty =
  /// no breakdowns anywhere.
  std::vector<std::uint32_t> breakdown_after;
  /// Multiplicative travel-time factor for (mcv, leg). Leg i is the leg
  /// arriving at sojourn i (leg 0 leaves the start position); leg ==
  /// tour length is the depot-return leg. Null = 1 everywhere.
  std::function<double(std::uint32_t mcv, std::size_t leg)> travel_multiplier;
  /// Multiplicative charging-duration factor for a sojourn parked at
  /// `location`. Null = 1 everywhere.
  std::function<double(std::uint32_t location)> charge_multiplier;
  /// Per-MCV energy budget (energy/mcv_battery.h). Disabled (the default)
  /// = unlimited energy and zero accounting overhead. Enabled: every MCV
  /// starts the round with a full battery, each sojourn draws its arrival
  /// leg's locomotion energy plus the sojourn's transfer energy as one
  /// all-or-nothing debit, and the depot-return leg draws locomotion
  /// energy; an unaffordable debit aborts the tour *deterministically*
  /// with BreakdownCause::kEnergyExhausted — the same partial-schedule /
  /// recovery machinery as the coin-flip breakdowns. Unlike jitter, the
  /// draws depend on driven meters, not travel time, so travel jitter
  /// never changes the energy outcome.
  energy::McvBudgetSpec budget;

  std::uint32_t breakdown_of(std::uint32_t mcv) const {
    return mcv < breakdown_after.size() ? breakdown_after[mcv] : kNoBreakdown;
  }
  bool has_breakdown() const {
    for (std::uint32_t b : breakdown_after) {
      if (b != kNoBreakdown) return true;
    }
    return false;
  }
  double travel_mult(std::uint32_t mcv, std::size_t leg) const {
    return travel_multiplier ? travel_multiplier(mcv, leg) : 1.0;
  }
  double charge_mult(std::uint32_t location) const {
    return charge_multiplier ? charge_multiplier(location) : 1.0;
  }
  /// True when this bundle can change anything about the execution.
  bool any() const {
    return has_breakdown() || travel_multiplier != nullptr ||
           charge_multiplier != nullptr || budget.enabled();
  }
};

/// Mid-round resume context: the frozen, already-executed prefix of a
/// round whose remaining stops are being re-executed as suffix tours
/// (graft recovery, core/replan.h). The executor treats the prefix as
/// history — it never re-runs it — but seeds all cross-tour state from it
/// so the merged (prefix + suffix) schedule is exactly what a single
/// uninterrupted execution of the merged tours would have produced.
struct ResumeState {
  /// A prefix sojourn that may still be charging when the suffix starts;
  /// suffix sojourns must wait out conflicts against these exactly like
  /// against each other.
  struct Busy {
    std::uint32_t mcv;
    std::uint32_t location;
    double start;
    double finish;
  };

  /// Per MCV: the instant it departs toward its first suffix stop —
  /// normally its prefix's last finish, possibly held later (e.g. until
  /// the base station could have issued the new instruction).
  std::vector<double> depart_at;
  /// Per MCV: number of already-executed sojourns. Suffix sojourn i uses
  /// travel-fault leg index leg_offset[k] + i (and the depot-return leg
  /// leg_offset[k] + suffix length), so fault draws line up with the
  /// merged tour's leg indices.
  std::vector<std::uint32_t> leg_offset;
  /// Per sensor: 1 if the executed prefix already charged it.
  std::vector<char> charged;
  /// Prefix sojourns with positive duration (conflict-detection seed).
  std::vector<Busy> busy;
  /// Per MCV: joules left in the battery after the executed prefix
  /// (seed with prefix_energy_left()). Empty = full battery / budget
  /// disabled. The suffix execution continues draining from here, so the
  /// merged schedule's energy account is bit-identical to one
  /// uninterrupted execution of the merged tours.
  std::vector<double> energy_left;
};

/// Executes `plan` against `problem` under `faults`. The plan may
/// reference each sensor location at most once across all tours
/// (asserted). Breakdowns and energy exhaustion truncate tours (the
/// schedule is then partial()), jitter rescales travel legs and charging
/// durations; the default empty bundle is the fault-free execution.
ChargingSchedule execute_plan(const model::ChargingProblem& problem,
                              const ChargingPlan& plan,
                              const ExecutionFaults& faults = {});

/// Resume overload (multi-node only): executes just the suffix tours in
/// `plan` on top of the partially executed round described by `resume`.
/// plan.starts must hold each MCV's current field position (its prefix's
/// last stop). Returns a schedule containing ONLY the suffix sojourns;
/// the caller merges it with the frozen prefix. MCVs with an empty suffix
/// tour are left untouched (return_time = depart_at).
ChargingSchedule execute_plan(const model::ChargingProblem& problem,
                              const ChargingPlan& plan,
                              const ExecutionFaults& faults,
                              const ResumeState& resume);

/// Replays the energy draws of the first `prefix_len[k]` sojourns of each
/// MCV in `schedule` under `spec` and returns the joules left per MCV —
/// the ResumeState::energy_left seed for a graft resume. The replay
/// applies exactly the executor's debit expression (arrival-leg meters +
/// sojourn transfer, one subtraction per sojourn) in tour order, so the
/// resumed battery holds bit-identical joules to a live execution.
std::vector<double> prefix_energy_left(
    const model::ChargingProblem& problem, const ChargingSchedule& schedule,
    const std::vector<std::size_t>& prefix_len,
    const energy::McvBudgetSpec& spec);

}  // namespace mcharge::sched
