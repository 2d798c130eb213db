#include "sim/simulation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/replan.h"
#include "obs/obs.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "sim/faults.h"
#include "sim/validate.h"
#include "util/assert.h"
#include "util/simd.h"
#include "util/simd_scalar.h"

namespace mcharge::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Strictly-past-the-threshold nudge on predicted crossings, so that the
/// batch collector (which tests `level < threshold`) sees the sensor even
/// under floating-point rounding of the lazy level update.
constexpr double kCrossingEps = 1e-6;

/// Per-sensor dynamic state in SoA layout, so the two per-round scans
/// (earliest crossing, advance + batch collection) run through the
/// simd::crossing_min / simd::advance_select_below kernels. Levels are
/// tracked lazily: level[v] is the battery level at time as_of[v]; the
/// linear draw makes any later level a closed-form expression.
/// dead_since[v] is the instant the battery hit zero (inf while alive).
struct SensorSoa {
  std::vector<double> level;
  std::vector<double> as_of;
  std::vector<double> dead_since;
};

}  // namespace

double SimResult::max_dead_minutes_per_sensor() const {
  double worst = 0.0;
  for (double s : dead_seconds_per_sensor) worst = std::max(worst, s);
  return worst / 60.0;
}

double snap_dispatch_to_epoch(double dispatch, double epoch,
                              double fleet_ready) {
  MCHARGE_ASSERT(epoch > 0.0, "epoch snap needs a positive epoch");
  double snapped = std::ceil(dispatch / epoch - 1e-12) * epoch;
  if (snapped < fleet_ready) {
    // The fudge rounded down past the fleet's return; take the first
    // boundary at or after fleet_ready instead (no fudge: here rounding
    // up a whole epoch is correct, dispatching early is not).
    snapped = std::ceil(fleet_ready / epoch) * epoch;
    if (snapped < fleet_ready) snapped = fleet_ready;
  }
  MCHARGE_ASSERT(snapped >= fleet_ready, "epoch dispatch before fleet return");
  return snapped;
}

SimResult simulate(const model::WrsnInstance& instance,
                   const sched::Scheduler& scheduler,
                   const SimConfig& config) {
  const std::size_t n = instance.num_sensors();
  const model::NetworkConfig& net = instance.config;
  const double capacity = net.battery_capacity_j;
  const double threshold_j = net.request_threshold * capacity;
  const double horizon = config.monitoring_period_s;

  // Up-front structured validation: every precondition of the round loop
  // is checked here; callers that must survive hostile input run
  // validate_sim_inputs() themselves first.
  if (auto input_error = validate_sim_inputs(instance, config)) {
    MCHARGE_ASSERT(false, input_error->message.c_str());
  }

  SimResult result;
  if (n == 0) return result;
  result.dead_seconds_per_sensor.assign(n, 0.0);
  result.charges_per_sensor.assign(n, 0);
  constexpr double kMonth = 30.0 * 86400.0;
  result.dead_seconds_by_month.assign(
      static_cast<std::size_t>(std::ceil(horizon / kMonth)), 0.0);

  // Credits the dead interval [from, to) to sensor v and to the 30-day
  // buckets it spans.
  auto credit_dead = [&](std::size_t v, double from, double to) {
    if (to <= from) return;
    result.total_dead_seconds += to - from;
    result.dead_seconds_per_sensor[v] += to - from;
    double at = from;
    while (at < to) {
      const auto bucket = std::min(
          result.dead_seconds_by_month.size() - 1,
          static_cast<std::size_t>(at / kMonth));
      const double bucket_end = (static_cast<double>(bucket) + 1.0) * kMonth;
      const double end = std::min(to, bucket_end);
      result.dead_seconds_by_month[bucket] += end - at;
      at = end;
    }
  };

  const FaultModel fault_model(config.faults);
  const bool deaths_on = config.faults.sensor_death_prob > 0.0;
  const double* draw = instance.consumption_w.data();
  // Sensor death needs a mutable draw array (a dead sensor stops
  // consuming); copy only when that fault class is enabled so the
  // fault-free path reads the instance's own memory as before.
  std::vector<double> draw_override;
  if (deaths_on) {
    draw_override = instance.consumption_w;
    draw = draw_override.data();
  }
  std::vector<char> failed(deaths_on ? n : 0, 0);
  SensorSoa state;
  state.level.assign(n, config.initial_level_fraction * capacity);
  state.as_of.assign(n, 0.0);
  state.dead_since.assign(n, kInf);
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::uint32_t> select_scratch(n);
  // Sensors never move, so every sensor's N_c+ is found once here; each
  // round's coverage lists are these lists induced on its batch.
  model::CoverageLists coverage;
  {
    OBS_SPAN("sim.coverage");
    coverage = model::CoverageLists(instance.positions, net.charging_radius);
  }
  std::vector<std::uint32_t> coverage_slot(n, model::CoverageLists::kNoSlot);

  // Advances sensor v's lazy state to time t with the per-element update
  // of simd::advance_select_below, for the sparse per-completion advances
  // where a vector scan has nothing to batch.
  auto advance_one = [&](std::size_t v, double t) {
    simd::advance_drain(state.level[v], state.as_of[v], state.dead_since[v],
                        draw[v], t);
  };

  double fleet_ready = 0.0;
  double busy_seconds = 0.0;
  // Time each sensor's pending request was raised (kInf = not pending).
  std::vector<double> pending_since(n, kInf);

  while (true) {
    // Permanent sensor deaths, drawn per (round, sensor) at the moment the
    // base station could next react. A dead sensor settles its dead-time
    // account, then leaves the network: zero draw and a full "level" keep
    // it out of both scans and the batch forever.
    if (deaths_on) {
      const double t_now = std::min(fleet_ready, horizon);
      for (std::size_t v = 0; v < n; ++v) {
        if (failed[v] || !fault_model.sensor_dies(result.rounds,
                                                  static_cast<std::uint32_t>(v)))
          continue;
        advance_one(v, t_now);
        if (state.dead_since[v] != kInf) {
          credit_dead(v, state.dead_since[v], t_now);
          state.dead_since[v] = kInf;
        }
        failed[v] = 1;
        ++result.sensors_failed;
        draw_override[v] = 0.0;
        state.level[v] = capacity;
        state.as_of[v] = t_now;
        pending_since[v] = kInf;
      }
    }

    // Next request among all sensors: the earliest per-sensor threshold
    // crossing (now for already-below sensors).
    OBS_SPAN("sim.round");
    double first_request = kInf;
    {
      OBS_SPAN("sim.crossing_scan");
      first_request =
          simd::crossing_min(state.level.data(), state.as_of.data(), draw, n,
                             threshold_j, kCrossingEps);
    }
    if (first_request >= horizon) break;
    if (result.rounds >= config.max_rounds) {
      // Work remains but the round budget is exhausted: the aggregates
      // cover only a prefix of the period. Callers must not read this as
      // a full-horizon result.
      result.truncated = true;
      result.truncated_reason = TruncationReason::kMaxRounds;
      break;
    }

    double dispatch = std::max(first_request, fleet_ready);
    if (config.dispatch_epoch_s > 0.0) {
      // Epoch policy: the fleet only leaves on epoch boundaries.
      dispatch =
          snap_dispatch_to_epoch(dispatch, config.dispatch_epoch_s,
                                 fleet_ready);
    }
    if (config.faults.dispatch_delay_prob > 0.0) {
      // Transient depot fault: the whole fleet leaves late this round.
      dispatch += fault_model.dispatch_delay(result.rounds);
    }
    if (dispatch >= horizon) break;
    MCHARGE_ASSERT(dispatch >= fleet_ready,
                   "dispatch while the fleet is still out");

    // Freeze V_s: advance everyone to dispatch time and collect everything
    // below threshold, in sensor index order.
    std::vector<std::uint32_t> batch;
    {
      OBS_SPAN("sim.select_scan");
      const std::size_t got = simd::advance_select_below(
          state.level.data(), state.as_of.data(), state.dead_since.data(),
          draw, n, dispatch, threshold_j, ids.data(), select_scratch.data());
      batch.assign(select_scratch.begin(),
                   select_scratch.begin() + static_cast<std::ptrdiff_t>(got));
    }
    MCHARGE_ASSERT(!batch.empty(), "dispatch with an empty request set");

    // The batch's request instants and the round's ChargingProblem (its
    // coverage lists are the static lists induced on the batch).
    model::ChargingProblem problem;
    {
      OBS_SPAN("sim.problem");
      for (std::uint32_t v : batch) {
        if (pending_since[v] == kInf) {
          // Reconstruct the actual crossing instant from the linear draw.
          // A sensor that *started* below the threshold never crossed it —
          // the reconstruction would land before t = 0 — so the request is
          // pending from the start of the period, never earlier.
          pending_since[v] =
              draw[v] > 0.0
                  ? std::max(0.0, dispatch - (threshold_j - state.level[v]) /
                                                 draw[v])
                  : dispatch;
        }
      }

      std::vector<geom::Point> positions;
      std::vector<double> charge_seconds;
      std::vector<double> lifetimes;
      positions.reserve(batch.size());
      charge_seconds.reserve(batch.size());
      lifetimes.reserve(batch.size());
      for (std::uint32_t v : batch) {
        positions.push_back(instance.positions[v]);
        charge_seconds.push_back(
            net.charge_seconds(std::max(0.0, capacity - state.level[v])));
        lifetimes.push_back(draw[v] > 0.0 ? state.level[v] / draw[v] : kInf);
      }
      problem = model::ChargingProblem(
          std::move(positions), std::move(charge_seconds),
          coverage.induced(batch, coverage_slot), net.depot,
          net.charging_radius, net.mcv_speed, net.num_chargers);
      problem.set_residual_lifetimes(std::move(lifetimes));
      problem.set_charging_rate(net.charging_rate_w);
    }

    sched::ChargingPlan plan;
    {
      OBS_SPAN("sim.plan");
      plan = scheduler.plan(problem);
    }
    sched::ExecutionFaults round_fault;
    if (fault_model.enabled()) {
      round_fault = fault_model.round_faults(result.rounds, plan);
    }
    // The energy budget rides the fault bundle: budget.enabled() makes
    // round_fault.any() true, routing the round through recover_round so
    // exhaustion aborts hit the same recovery machinery as breakdowns.
    // MCVs recharge at the depot between rounds, so each round's bundle
    // carries the full budget.
    if (config.mcv_budget.enabled()) round_fault.budget = config.mcv_budget;
    const bool faulty = round_fault.any();

    // Every round yields one RecoveryOutcome. A faulty round executes
    // under its fault bundle and lets the recovery policy deal with
    // whatever the breakdowns orphaned; a fault-free round is its plain
    // execution with no recovery wave.
    core::RecoveryOutcome outcome;
    {
      OBS_SPAN("sim.execute");
      if (faulty) {
        outcome =
            core::recover_round(problem, plan, round_fault, config.recovery);
      } else {
        outcome.primary = sched::execute_plan(problem, plan);
      }
    }
    if (faulty) OBS_COUNT("sim.faulty_rounds", 1);
    {
      // The primary schedule is verified against the round's fault bundle
      // and may be partial only when faults could truncate it; one-to-one
      // baselines may legitimately skip sensors (AA's profit pruning), so
      // full coverage is not demanded. A recovery wave is verified as a
      // normal full-coverage schedule of its own sub-problem.
      OBS_SPAN("sim.verify");
      sched::VerifyOptions verify_options;
      verify_options.require_full_coverage = false;
      verify_options.allow_partial = faulty;
      verify_options.faults = &round_fault;
      result.verify_violations +=
          sched::verify_schedule(problem, outcome.primary, verify_options)
              .size();
      if (outcome.has_recovery) {
        result.verify_violations +=
            sched::verify_schedule(outcome.replan.subproblem, outcome.recovery)
                .size();
      }
    }
    // The round's accounting tail; the span closes at the end of the loop
    // body.
    OBS_SPAN("sim.account");
    const std::vector<double> charged_at = outcome.charged_at();
    const double round_delay = outcome.longest_delay();
    double round_wait = outcome.primary.total_wait();
    if (outcome.has_recovery) round_wait += outcome.recovery.total_wait();

    RoundLog round_log;
    result.mcv_breakdowns += outcome.stats.breakdowns;
    result.recovered_sensors += outcome.stats.recovered_sensors;
    result.deferred_sensors += outcome.stats.deferred_sensors;
    result.extra_recovery_delay_s += outcome.stats.extra_delay_s;
    round_log.breakdowns = outcome.stats.breakdowns;
    round_log.recovered = outcome.stats.recovered_sensors;
    round_log.deferred = outcome.stats.deferred_sensors;
    round_log.extra_delay_s = outcome.stats.extra_delay_s;
    if (config.mcv_budget.enabled()) {
      std::size_t exhausted = 0;
      double spent_j = 0.0;
      double max_tour_j = 0.0;
      for (const auto& m : outcome.primary.mcvs) {
        if (m.abort_cause == sched::BreakdownCause::kEnergyExhausted) {
          ++exhausted;
        }
        spent_j += m.energy_spent_j;
        max_tour_j = std::max(max_tour_j, m.energy_spent_j);
        if (config.record_tour_energy) {
          result.mcv_tour_energy_j.push_back(m.energy_spent_j);
        }
      }
      result.mcv_energy_exhausted += exhausted;
      result.mcv_energy_spent_j += spent_j;
      result.mcv_energy_max_tour_j =
          std::max(result.mcv_energy_max_tour_j, max_tour_j);
      round_log.energy_aborts = exhausted;
      round_log.energy_spent_j = spent_j;
      round_log.energy_max_tour_j = max_tour_j;
      OBS_COUNT("sim.energy_spent", std::llround(spent_j));
    }

    ++result.rounds;
    result.round_batch_size.add(static_cast<double>(batch.size()));
    result.round_longest_delay_s.add(round_delay);
    result.total_conflict_wait_s += round_wait;

    // Apply charge completions.
    std::size_t charged_count = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (charged_at[i] == sched::kNeverCharged) continue;
      const std::uint32_t v = batch[i];
      const double done = dispatch + charged_at[i];
      // Dead-time accounting up to the charge completion (or horizon).
      advance_one(v, std::min(done, horizon));
      if (state.dead_since[v] != kInf) {
        credit_dead(v, state.dead_since[v], std::min(done, horizon));
        state.dead_since[v] = kInf;
      }
      if (done < horizon) {
        state.level[v] = capacity;
        state.as_of[v] = done;
        ++charged_count;
        ++result.charges_per_sensor[v];
        if (pending_since[v] != kInf) {
          result.request_latency_s.add(done - pending_since[v]);
          pending_since[v] = kInf;
        }
      } else {
        // Charge completes after the monitoring period; the event is
        // censored and contributes no latency sample.
        state.level[v] = capacity;
        state.as_of[v] = horizon;
        pending_since[v] = kInf;
      }
    }
    result.sensors_charged += charged_count;
    if (config.record_rounds) {
      round_log.dispatch_time = dispatch;
      round_log.batch = batch.size();
      round_log.charged = charged_count;
      round_log.longest_delay_s = round_delay;
      round_log.wait_s = round_wait;
      result.rounds_log.push_back(round_log);
    }

    if (round_delay > 0.0) {
      if (dispatch + round_delay > horizon) {
        // The period ended while the fleet was still out: this round's
        // contribution is censored at the horizon.
        result.truncated = true;
        result.truncated_reason = TruncationReason::kHorizonMidRound;
      }
      busy_seconds += std::min(dispatch + round_delay, horizon) - dispatch;
      fleet_ready = dispatch + round_delay;
    } else {
      // Nothing was charged (degenerate plan); back off to avoid spinning.
      fleet_ready = dispatch + kEmptyRoundBackoffS;
    }
  }

  // Close out dead time for sensors still dead at the horizon.
  for (std::size_t v = 0; v < n; ++v) {
    advance_one(v, horizon);
    if (state.dead_since[v] != kInf) {
      credit_dead(v, state.dead_since[v], horizon);
      state.dead_since[v] = kInf;
    }
  }

  result.mean_dead_minutes_per_sensor =
      result.total_dead_seconds / static_cast<double>(n) / 60.0;
  // Utilization is busy time over *simulated* time. For a run that covers
  // the period that is the horizon; for a kMaxRounds truncation only the
  // prefix up to the fleet's last return was simulated, and dividing by
  // the full horizon would shrink busy_fraction with the (arbitrary)
  // round budget instead of measuring the fleet.
  const double elapsed =
      result.truncated_reason == TruncationReason::kMaxRounds
          ? std::min(fleet_ready, horizon)
          : horizon;
  result.busy_fraction = elapsed > 0.0 ? busy_seconds / elapsed : 0.0;
  return result;
}

}  // namespace mcharge::sim
