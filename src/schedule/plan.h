// Charging plans and timed charging schedules.
//
// A scheduling algorithm outputs a ChargingPlan: one location sequence per
// MCV plus the charging mode. The executor (execute.h) turns a plan into a
// ChargingSchedule with concrete sojourn times, applying the paper's
// de-duplicated charging durations (Eq. (3)) and the no-simultaneous-
// charging constraint (waiting when two MCVs would energize a common
// sensor at once).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "model/charging_problem.h"

namespace mcharge::sched {

/// How an MCV at a sojourn location delivers energy.
enum class ChargeMode {
  /// Multi-node charging (the paper's scheme): an MCV parked at location v
  /// charges every sensor in N_c+(v) simultaneously.
  kMultiNode,
  /// One-to-one charging (the baselines' scheme): the MCV charges only the
  /// sensor it is parked at.
  kOneToOne,
};

/// One location sequence per MCV. Entries index sensors of the
/// ChargingProblem (sojourn locations are co-located with sensors).
struct ChargingPlan {
  ChargeMode mode = ChargeMode::kMultiNode;
  std::vector<std::vector<std::uint32_t>> tours;
  /// Optional per-MCV start positions (same length as `tours`). Empty
  /// means every MCV starts at the depot — the normal round-start case.
  /// Mid-round replanning (core/replan.h) sets them to the MCVs' current
  /// field positions; every tour still ENDS at the depot.
  std::vector<geom::Point> starts;

  std::size_t total_stops() const;
  /// The start position of MCV k given the problem's depot.
  geom::Point start_of(std::size_t k, geom::Point depot) const;
};

/// A committed stop of one MCV.
struct Sojourn {
  std::uint32_t location = 0;  ///< sensor index the MCV parks at
  double arrival = 0.0;        ///< when the MCV reaches the location
  double start = 0.0;          ///< when charging begins (>= arrival: waits)
  double finish = 0.0;         ///< start + actual charging duration tau'
  std::vector<std::uint32_t> charged;  ///< sensors fully charged here

  double wait() const { return start - arrival; }
  double duration() const { return finish - start; }
};

/// Why a tour ended in the field instead of at the depot.
enum class BreakdownCause {
  kNone,             ///< not aborted, or a recovery recall (no fault)
  kFault,            ///< coin-flip breakdown (ExecutionFaults::breakdown_after)
  kEnergyExhausted,  ///< the MCV battery budget ran out mid-tour
};

/// The timed itinerary of one MCV.
struct McvSchedule {
  std::vector<Sojourn> sojourns;
  double return_time = 0.0;  ///< back at the depot; this is T'(k), Eq. (4)
  /// True when the tour ended in the field instead of at the depot: a
  /// mid-tour breakdown (execute.h's ExecutionFaults) or a recovery
  /// recall (core/replan.h). return_time is then the instant the MCV
  /// stopped executing — no depot leg; vehicle retrieval is outside the
  /// delay metric.
  bool aborted = false;
  /// What ended the tour early. kNone unless `aborted` — and stays kNone
  /// for a recovery recall, which is an instruction, not a failure.
  BreakdownCause abort_cause = BreakdownCause::kNone;
  /// Planned stops this MCV never visited (tour order). Empty unless
  /// `aborted`. Another MCV may still visit them (recovery grafting).
  std::vector<std::uint32_t> skipped;
  /// Joules drawn from the MCV battery over the round, cumulative across
  /// a graft resume (prefix + suffix). 0 unless the execution ran under
  /// an enabled energy::McvBudgetSpec (execute.h).
  double energy_spent_j = 0.0;
};

inline constexpr double kNeverCharged = std::numeric_limits<double>::infinity();

/// A complete executed schedule for one charging round.
struct ChargingSchedule {
  ChargeMode mode = ChargeMode::kMultiNode;
  std::vector<McvSchedule> mcvs;
  /// Resolved start position per MCV (depot unless the plan overrode it).
  std::vector<geom::Point> starts;
  /// Per sensor of the problem: the time it reached full charge
  /// (kNeverCharged if the plan never charged it).
  std::vector<double> charged_at;

  /// Energy use of one MCV over its tour, for fleet sizing.
  struct EnergyUse {
    double delivered_j = 0.0;   ///< wireless energy transferred to sensors
    double locomotion_j = 0.0;  ///< travel energy (kMoveCostJPerM * meters)
  };

  /// max_k T'(k): the objective of the paper.
  double longest_delay() const;
  /// Total waiting injected to satisfy the no-overlap constraint.
  double total_wait() const;
  std::size_t num_stops() const;
  /// True iff every sensor got charged.
  bool all_charged() const;
  /// True iff any tour ended in the field (breakdown or recall): the
  /// round executed only part of its plan.
  bool partial() const;
  /// Number of MCVs whose tour was aborted.
  std::size_t num_aborted() const;

  /// Per-MCV energy budget of the executed round: energy radiated while
  /// charging (active duration * the problem's charging rate — the
  /// transmitter runs for the whole sojourn regardless of how many sensors
  /// absorb it) plus locomotion energy at energy::kMoveCostJPerM over
  /// the legs actually driven (no depot return for an aborted tour).
  std::vector<EnergyUse> energy_use(
      const model::ChargingProblem& problem) const;
};

}  // namespace mcharge::sched
