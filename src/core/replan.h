// Mid-round fleet-state reconstruction and replanning.
//
// Engineering extension beyond the paper: when a round is interrupted at
// time t (new urgent requests arrived, an MCV must be re-tasked), the base
// station needs (a) where every MCV is at time t and what has already been
// charged, and (b) a fresh plan for everything still uncharged that starts
// from the MCVs' CURRENT positions (not the depot) and ends at the depot.
//
// The replanner selects sojourn stops exactly like Appro (MIS of the
// charging graph over the remaining sensors — a dominating set, so
// coverage is guaranteed) and then assigns stops greedily: the MCV with
// the least accumulated delay takes its nearest remaining stop. Conflict
// feasibility is delegated to the executor's waiting rule, as with any
// plan.
#pragma once

#include <cstdint>
#include <vector>

#include "model/charging_problem.h"
#include "schedule/execute.h"
#include "schedule/plan.h"

namespace mcharge::core {

/// Snapshot of the fleet mid-execution.
struct FleetState {
  double time = 0.0;
  std::vector<geom::Point> mcv_positions;
  std::vector<char> charged;  ///< per sensor: fully charged by `time`?

  std::size_t num_charged() const;
};

/// Reconstructs where each MCV is at time `t` of an executed schedule
/// (interpolating along travel legs; parked during sojourns; back at the
/// depot after its return time) and which sensors are charged by then.
/// An MCV whose tour was aborted (breakdown, energy exhaustion or recall)
/// stays at its last completed stop once it finished there, and at its
/// start if it never reached one: an aborted tour drives no depot leg.
FleetState fleet_state_at(const model::ChargingProblem& problem,
                          const sched::ChargingSchedule& schedule, double t);

/// A replan: a fresh sub-problem over the still-uncharged sensors plus a
/// plan for it whose tours start at the MCVs' current positions.
struct ReplanResult {
  model::ChargingProblem subproblem;          ///< uncharged sensors only
  sched::ChargingPlan plan;                   ///< indexes `subproblem`
  std::vector<std::uint32_t> original_index;  ///< subproblem id -> original
};

/// Plans the still-uncharged sensors of `problem` from the given fleet
/// state. Execute and verify the result against `result.subproblem`.
ReplanResult replan_from(const model::ChargingProblem& problem,
                         const FleetState& state);

/// What the base station does with the stops orphaned by MCV breakdowns.
enum class RecoveryPolicy {
  /// Leave orphaned sensors uncharged; they re-request next round.
  kDefer,
  /// Graft the orphaned stops onto surviving MCVs' remaining tours by
  /// cheapest insertion (only after the stops each survivor has already
  /// begun by the time the first breakdown is known), then re-execute.
  kGraft,
  /// Recall the surviving MCVs once the last breakdown is known and run a
  /// fresh reduced-fleet replan (replan_from) over everything still
  /// uncharged, executed as a second wave after all primary activity ends.
  kReplan,
};

/// Bookkeeping of one recovered round.
struct RecoveryStats {
  std::size_t breakdowns = 0;         ///< MCVs that failed mid-tour
  std::size_t orphaned_sensors = 0;   ///< sensors the breakdowns left behind
  std::size_t recovered_sensors = 0;  ///< orphans charged anyway this round
  std::size_t deferred_sensors = 0;   ///< sensors pushed to the next round
  double extra_delay_s = 0.0;         ///< delay added vs the broken schedule
};

/// The executed result of one fault round: the primary (possibly partial,
/// possibly graft-patched) schedule plus, under kReplan, a second recovery
/// wave against a sub-problem of the still-uncharged sensors.
struct RecoveryOutcome {
  sched::ChargingSchedule primary;  ///< indexes the original problem
  bool has_recovery = false;        ///< kReplan fired a second wave
  ReplanResult replan;              ///< valid iff has_recovery
  sched::ChargingSchedule recovery;  ///< indexes replan.subproblem
  double recovery_offset_s = 0.0;   ///< absolute start time of the wave
  RecoveryStats stats;

  /// The round's realized longest charge delay across both waves.
  double longest_delay() const;
  /// Per sensor of the original problem: when it reached full charge,
  /// from the round start, in either wave (kNeverCharged if in neither).
  std::vector<double> charged_at() const;
};

/// Executes `plan` under `faults` and applies `policy` to whatever the
/// breakdowns orphaned. With no breakdown in `faults` this is exactly
/// execute_plan(problem, plan, faults) wrapped in an outcome. An enabled
/// energy budget (faults.budget) feeds the same machinery: exhaustion
/// aborts orphan their remaining stops just like coin-flip breakdowns,
/// and a grafted survivor resumes with the joules its prefix left (its
/// battery does not refill mid-round), so a graft detour can exhaust it
/// again. The recovery wave (kReplan) always uses multi-node charging and
/// runs fault-free AND budget-free: at most one fault event per MCV per
/// round, and the wave departs the depot fully recharged — its energy
/// feasibility is the planner's job, not the executor's.
RecoveryOutcome recover_round(const model::ChargingProblem& problem,
                              const sched::ChargingPlan& plan,
                              const sched::ExecutionFaults& faults,
                              RecoveryPolicy policy);

}  // namespace mcharge::core
