// Round-based WRSN charging simulation over a monitoring period.
//
// Sensors deplete linearly at their steady-state draw. When a sensor's
// residual falls below the request threshold it raises a charging request.
// Whenever the MCV fleet is at the depot and requests are pending, the base
// station freezes the pending set V_s into a ChargingProblem, runs the
// scheduler under test, executes the plan (with the no-overlap constraint
// enforced), and advances time to the fleet's return. Sensors keep draining
// while they wait; a sensor whose battery hits zero accrues dead time until
// the moment it is fully charged (the paper's Fig. 3(b)/4(b)/5(b) metric).
//
// Deliberate modeling choices (documented in DESIGN.md):
//  * charging durations t_v are frozen at dispatch time (as in the paper);
//    the marginal extra drain between request and charge is ignored;
//  * the fleet is dispatched and recalled as a unit (the base station
//    schedules all K tours at once; MCVs recharge at the depot between
//    rounds);
//  * every executed schedule is verified; violations are counted in the
//    result (expected zero).
#pragma once

#include <cstddef>
#include <vector>

#include "core/replan.h"
#include "energy/mcv_battery.h"
#include "model/network.h"
#include "schedule/scheduler.h"
#include "sim/faults.h"
#include "util/stats.h"

namespace mcharge::sim {

/// Longest monitoring period simulate() accepts: 100 simulated years of
/// 365.25 days. SimResult::dead_seconds_by_month holds one bucket per 30
/// days of the horizon (1,218 at this cap), allocated before the round
/// loop starts.
inline constexpr double kMaxHorizonS = 100.0 * 365.25 * 86400.0;

/// Re-dispatch backoff when a round charged nothing (seconds).
inline constexpr double kEmptyRoundBackoffS = 600.0;

struct SimConfig {
  /// T_M = 1 year; at most kMaxHorizonS.
  double monitoring_period_s = 365.0 * 24.0 * 3600.0;
  double initial_level_fraction = 1.0;  ///< batteries start full
  /// Safety cap on charging rounds (a scheduler that never charges anything
  /// would otherwise spin); generously above any realistic round count.
  std::size_t max_rounds = 200000;
  /// Dispatch policy. 0 = on-demand: the fleet leaves as soon as it is home
  /// and at least one request is pending. > 0 = epoch-based: the fleet only
  /// leaves at multiples of this period (requests batch up between epochs),
  /// which trades request latency for larger batches — and larger batches
  /// are exactly where multi-node charging pays (ablation_policy bench).
  double dispatch_epoch_s = 0.0;
  /// Record one RoundLog entry per charging round in SimResult::rounds_log.
  bool record_rounds = false;
  /// Deterministic fault injection (sim/faults.h). All rates default to
  /// zero; a zero-rate config takes exactly the fault-free code path, so
  /// its SimResult is byte-identical to a run without the fault layer.
  FaultConfig faults;
  /// What to do with the stops orphaned when an MCV breaks down mid-tour
  /// (core/replan.h). Irrelevant while faults.mcv_breakdown_prob == 0 and
  /// the energy budget below is disabled.
  core::RecoveryPolicy recovery = core::RecoveryPolicy::kDefer;
  /// Finite per-MCV energy budget (energy/mcv_battery.h). Disabled (the
  /// default, capacity_j == 0) takes exactly the unlimited-energy code
  /// path, byte for byte. Enabled: every MCV departs each round with a
  /// full battery (depot recharge between rounds), the executor debits
  /// locomotion + transfer energy per sojourn, and an unaffordable debit
  /// aborts the tour with BreakdownCause::kEnergyExhausted — routed
  /// through the same `recovery` policy as coin-flip breakdowns. Purely
  /// deterministic: budgeted runs are bit-identical across sweep jobs,
  /// SIMD backends and recovery-irrelevant knobs, independent of the fault
  /// rates in `faults`.
  energy::McvBudgetSpec mcv_budget;
  /// Record every per-MCV tour draw (joules) into
  /// SimResult::mcv_tour_energy_j, in round order and MCV order within a
  /// round. Only meaningful with mcv_budget enabled (the budget-disabled
  /// path never meters); off by default to keep long runs lean. Budget
  /// sweeps use a metering run with an effectively unlimited capacity and
  /// this flag on to learn the full draw distribution, then anchor the
  /// swept capacities on its quantiles (bench/fault_ablation).
  bool record_tour_energy = false;
};

/// One charging round as seen by the base station.
struct RoundLog {
  double dispatch_time = 0.0;   ///< when the fleet left the depot
  std::size_t batch = 0;        ///< |V_s|
  std::size_t charged = 0;      ///< sensors actually charged
  double longest_delay_s = 0.0; ///< max_k T'(k) of the round
  double wait_s = 0.0;          ///< conflict waiting within the round
  std::size_t breakdowns = 0;   ///< MCVs that failed this round (any cause)
  std::size_t recovered = 0;    ///< orphaned sensors charged anyway
  std::size_t deferred = 0;     ///< orphaned sensors pushed to next round
  double extra_delay_s = 0.0;   ///< recovery delay added this round
  std::size_t energy_aborts = 0;  ///< breakdowns caused by battery exhaustion
  double energy_spent_j = 0.0;    ///< fleet joules drawn this round
  double energy_max_tour_j = 0.0; ///< heaviest single-MCV draw this round
};

/// Why a simulation stopped before cleanly exhausting its horizon.
enum class TruncationReason {
  kNone,            ///< ran to the end of the monitoring period
  kMaxRounds,       ///< hit SimConfig::max_rounds — results are partial
  kHorizonMidRound, ///< the period ended while the fleet was still out
};

struct SimResult {
  std::size_t rounds = 0;
  std::size_t sensors_charged = 0;      ///< charge events over the period
  double total_dead_seconds = 0.0;      ///< summed over all sensors
  double mean_dead_minutes_per_sensor = 0.0;
  RunningStats round_longest_delay_s;   ///< per-round max_k T'(k)
  RunningStats round_batch_size;        ///< |V_s| per round
  /// Per charge event: seconds between the sensor's charging request
  /// (threshold crossing) and its full charge — the "charge as soon as
  /// possible" quantity the paper's objective is a proxy for.
  RunningStats request_latency_s;
  double total_conflict_wait_s = 0.0;   ///< waiting injected by the executor
  std::size_t verify_violations = 0;    ///< should stay 0
  /// Fraction of the *simulated* time the fleet spends away from the
  /// depot. A round dispatched at time d with longest delay D contributes
  /// min(d + D, T_M) - d busy seconds: a round still out when the period
  /// ends is censored and counts only its in-horizon prefix. Degenerate
  /// rounds that charge nothing contribute zero — the empty-round backoff
  /// is idle time at the depot, not busy time. The denominator is the
  /// horizon T_M for a run that covers it, but only the elapsed simulated
  /// time (the fleet's last return) when the run truncates early via
  /// kMaxRounds — dividing a partial run's busy seconds by the full
  /// horizon would silently under-report utilization.
  double busy_fraction = 0.0;
  std::vector<double> dead_seconds_per_sensor;   ///< indexed by sensor
  std::vector<std::size_t> charges_per_sensor;   ///< charge events per sensor
  /// Network-wide dead time bucketed into 30-day windows of the horizon.
  /// A fleet that keeps up shows a flat profile; an overloaded one shows
  /// the queue building month over month.
  std::vector<double> dead_seconds_by_month;
  std::vector<RoundLog> rounds_log;     ///< filled iff config.record_rounds
  /// True when the run stopped early (see truncated_reason). Aggregates
  /// (dead time, delays) then cover only the simulated prefix; figure
  /// benches assert the reason is never kMaxRounds before plotting.
  bool truncated = false;
  TruncationReason truncated_reason = TruncationReason::kNone;
  // --- Fault-layer accounting (all zero in a fault-free run). ---
  std::size_t mcv_breakdowns = 0;   ///< MCV failures over the period,
                                    ///< energy exhaustions included
  std::size_t sensors_failed = 0;   ///< sensors that died permanently
  std::size_t recovered_sensors = 0;  ///< orphans charged by recovery
  std::size_t deferred_sensors = 0;   ///< orphans pushed to a later round
  double extra_recovery_delay_s = 0.0;  ///< total delay added by recovery
  // --- Energy accounting (zero unless config.mcv_budget is enabled). ---
  /// Tours aborted by battery exhaustion (subset of mcv_breakdowns).
  std::size_t mcv_energy_exhausted = 0;
  /// Total joules the fleet drew over the period, summed over the primary
  /// execution of every round. The kReplan recovery wave departs the
  /// depot recharged and runs budget-free, so its draw is not metered.
  double mcv_energy_spent_j = 0.0;
  /// Largest draw any single MCV made on one tour over the whole period —
  /// the capacity at which no tour would have exhausted. Calibration
  /// anchor for budget sweeps (bench/fault_ablation).
  double mcv_energy_max_tour_j = 0.0;
  /// Every per-MCV tour draw over the period (round order, MCV order
  /// within a round) — filled iff config.record_tour_energy and the
  /// budget is enabled. Sorting this gives the exact draw distribution a
  /// sweep needs to place a capacity at a target abort quantile.
  std::vector<double> mcv_tour_energy_j;

  double mean_longest_delay_hours() const {
    return round_longest_delay_s.mean() / 3600.0;
  }
  /// Largest per-sensor dead time, in minutes (0 for an empty network).
  double max_dead_minutes_per_sensor() const;
};

/// Snaps a dispatch instant up to the next boundary of `epoch` (> 0),
/// never before `fleet_ready`. The 1e-12 relative fudge keeps a dispatch
/// already sitting on a boundary from being pushed a whole epoch by
/// floating-point noise — but that same fudge can round *down* past
/// fleet_ready when the fleet returns a hair after a boundary, which
/// would dispatch the fleet before it is home; this helper re-snaps from
/// fleet_ready (and clamps) so the result is always >= fleet_ready.
/// Exposed for direct adversarial testing (sim_test.cpp).
double snap_dispatch_to_epoch(double dispatch, double epoch,
                              double fleet_ready);

/// Runs one full monitoring period of `instance` under `scheduler`.
SimResult simulate(const model::WrsnInstance& instance,
                   const sched::Scheduler& scheduler,
                   const SimConfig& config = {});

}  // namespace mcharge::sim
