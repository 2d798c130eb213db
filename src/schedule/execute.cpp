#include "schedule/execute.h"

#include <algorithm>
#include <queue>

#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::sched {

namespace {

struct Event {
  double time;
  std::uint32_t mcv;
  std::size_t tour_pos;  ///< index of the location being visited

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return mcv > other.mcv;
  }
};

/// A committed charging interval used for conflict detection.
struct ActiveSojourn {
  std::uint32_t mcv;
  std::uint32_t location;
  double start;
  double finish;
};

/// Travel time of leg `leg` of MCV `mcv`, driven from `from` to `to`. Leg
/// i arrives at sojourn i (leg 0 leaves the start position, leg == tour
/// length is the depot return); a resumed execution offsets the index by
/// the frozen prefix length. A null travel multiplier multiplies nothing.
double leg_seconds(const model::ChargingProblem& problem,
                   const ExecutionFaults& faults, std::uint32_t mcv,
                   std::size_t leg, geom::Point from, geom::Point to) {
  double t = geom::distance(from, to) / problem.speed();
  if (faults.travel_multiplier) t *= faults.travel_multiplier(mcv, leg);
  return t;
}

/// Marks MCV `k` broken before performing sojourn `pos`: the tour ends at
/// the last completed sojourn's finish (or the start instant for pos = 0)
/// and every remaining planned stop is recorded as skipped.
void abort_tour(const ChargingPlan& plan, std::uint32_t k, std::size_t pos,
                McvSchedule* mcv,
                BreakdownCause cause = BreakdownCause::kFault) {
  mcv->aborted = true;
  mcv->abort_cause = cause;
  mcv->return_time =
      mcv->sojourns.empty() ? 0.0 : mcv->sojourns.back().finish;
  const auto& tour = plan.tours[k];
  mcv->skipped.assign(tour.begin() + static_cast<std::ptrdiff_t>(pos),
                      tour.end());
}

/// Battery debit of committing a sojourn: the arrival leg's locomotion
/// energy plus the sojourn's transfer energy, as one all-or-nothing sum.
/// `duration` must be the recorded finish - start (so a resume replay of
/// the sojourn record reproduces the exact same bits).
double sojourn_energy_j(const model::ChargingProblem& problem,
                        geom::Point from, std::uint32_t loc, double duration) {
  const double meters = geom::distance(from, problem.position(loc));
  return energy::kMoveCostJPerM * meters + duration * problem.charging_rate_w();
}

/// Per-MCV batteries for one execution, seeded from a resume prefix when
/// one is given. Empty when the budget is disabled — the caller must then
/// skip every energy branch so the unbudgeted path stays untouched.
std::vector<energy::McvBattery> make_batteries(const ChargingPlan& plan,
                                               const ExecutionFaults& faults,
                                               const ResumeState& resume) {
  std::vector<energy::McvBattery> batteries;
  if (!faults.budget.enabled()) return batteries;
  batteries.reserve(plan.tours.size());
  for (std::size_t k = 0; k < plan.tours.size(); ++k) {
    batteries.emplace_back(faults.budget);
    if (k < resume.energy_left.size()) {
      batteries.back().set_level(resume.energy_left[k]);
    }
  }
  return batteries;
}

/// The one event loop for both charge modes. They differ in two places:
/// the charge set of a stop (every uncommitted sensor of N_c+(loc) for
/// multi-node, just `loc` if uncommitted for one-to-one) and the
/// no-overlap conflict wait, which only multi-node sojourns observe.
ChargingSchedule execute_tours(const model::ChargingProblem& problem,
                               const ChargingPlan& plan,
                               const ExecutionFaults& faults,
                               const ResumeState& resume) {
  const bool multinode = plan.mode == ChargeMode::kMultiNode;
  ChargingSchedule schedule;
  schedule.mode = plan.mode;
  schedule.mcvs.resize(plan.tours.size());
  schedule.charged_at.assign(problem.size(), kNeverCharged);
  for (std::size_t k = 0; k < plan.tours.size(); ++k) {
    schedule.starts.push_back(plan.start_of(k, problem.depot()));
  }

  // A default-constructed ResumeState is a fresh execution: departure 0,
  // leg offset 0, nothing charged, nothing busy.
  const auto depart = [&resume](std::uint32_t k) {
    return k < resume.depart_at.size() ? resume.depart_at[k] : 0.0;
  };
  const auto offset = [&resume](std::uint32_t k) {
    return k < resume.leg_offset.size()
               ? static_cast<std::size_t>(resume.leg_offset[k])
               : std::size_t{0};
  };
  // Where MCV k stands before driving to stop `pos` of its tour.
  const auto origin = [&](std::uint32_t k, std::size_t pos) {
    return pos == 0 ? schedule.starts[k]
                    : problem.position(plan.tours[k][pos - 1]);
  };

  // `committed` marks sensors that are (or will be) fully charged by an
  // already-committed sojourn, so later sojourns exclude them from tau'.
  std::vector<char> committed(problem.size(), 0);
  for (std::size_t u = 0; u < resume.charged.size(); ++u) {
    if (resume.charged[u]) committed[u] = 1;
  }
  std::vector<ActiveSojourn> log;  // all committed sojourns with duration > 0
  for (const auto& b : resume.busy) {
    log.push_back({b.mcv, b.location, b.start, b.finish});
  }

  // Energy budget: one battery per MCV, full (or resume-seeded) at the
  // round start. Empty vector when the budget is disabled; every energy
  // branch below is gated on budget_on so the unbudgeted execution is
  // exactly the pre-budget code path.
  const bool budget_on = faults.budget.enabled();
  std::vector<energy::McvBattery> battery =
      make_batteries(plan, faults, resume);

  // Events run in global time order (ties by MCV id), so a sensor two
  // MCVs could charge goes to the earlier one and the result is
  // deterministic.
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  for (std::uint32_t k = 0; k < plan.tours.size(); ++k) {
    if (plan.tours[k].empty()) {
      schedule.mcvs[k].return_time = depart(k);
    } else if (faults.breakdown_of(k) == 0) {
      // Broke down at dispatch: never leaves the depot area.
      abort_tour(plan, k, 0, &schedule.mcvs[k]);
    } else {
      events.push({depart(k) + leg_seconds(problem, faults, k, offset(k),
                                           origin(k, 0),
                                           problem.position(plan.tours[k][0])),
                   k, 0});
    }
  }

  while (!events.empty()) {
    Event ev = events.top();
    events.pop();
    const auto& tour = plan.tours[ev.mcv];
    const std::uint32_t loc = tour[ev.tour_pos];

    // Sensors this sojourn would charge.
    std::vector<std::uint32_t> to_charge;
    if (multinode) {
      for (std::uint32_t u : problem.coverage(loc)) {
        if (!committed[u]) to_charge.push_back(u);
      }
    } else if (!committed[loc]) {
      to_charge.push_back(loc);
    }
    double duration = 0.0;
    for (std::uint32_t u : to_charge) {
      duration = std::max(duration, problem.charge_seconds(u));
    }
    if (faults.charge_multiplier) duration *= faults.charge_multiplier(loc);

    const double start = ev.time;
    if (multinode && duration > 0.0) {
      // Wait out any committed conflicting interval still active at/after
      // `start`: another MCV whose charging disk shares a sensor with ours.
      double wait_until = start;
      for (const auto& active : log) {
        if (active.mcv == ev.mcv) continue;
        if (active.finish <= start) continue;
        if (problem.overlapping(active.location, loc)) {
          wait_until = std::max(wait_until, active.finish);
        }
      }
      if (wait_until > start) {
        // Re-queue at the conflict's end: conditions may change by then (a
        // third MCV may commit another conflicting interval meanwhile).
        // True arrival times are rebuilt from travel legs after the loop.
        events.push({wait_until, ev.mcv, ev.tour_pos});
        continue;
      }
    }

    // Energy gate: committing this sojourn costs the arrival leg's
    // locomotion energy plus the transfer energy, debited together so an
    // exhausted MCV never goes energy-negative mid-action. An unaffordable
    // debit ends the tour here — the vehicle would run dry en route — as
    // a deterministic, cause-tagged breakdown feeding the same recovery
    // machinery as the coin-flip ones. Checked only after the conflict
    // wait resolved: waiting draws nothing, so a re-queued event must not
    // debit twice.
    if (budget_on) {
      const double need =
          sojourn_energy_j(problem, origin(ev.mcv, ev.tour_pos), loc,
                           (start + duration) - start);
      if (!battery[ev.mcv].draw(need)) {
        OBS_COUNT("exec.energy_aborts", 1);
        abort_tour(plan, ev.mcv, ev.tour_pos, &schedule.mcvs[ev.mcv],
                   BreakdownCause::kEnergyExhausted);
        continue;
      }
    }

    // Commit the sojourn.
    Sojourn sojourn;
    sojourn.location = loc;
    sojourn.arrival = ev.time;  // refined below via arrival tracking
    sojourn.start = start;
    sojourn.finish = start + duration;
    for (std::uint32_t u : to_charge) {
      committed[u] = 1;
      schedule.charged_at[u] = sojourn.finish;
    }
    sojourn.charged = std::move(to_charge);
    if (multinode && duration > 0.0) {
      log.push_back({ev.mcv, loc, sojourn.start, sojourn.finish});
    }
    schedule.mcvs[ev.mcv].sojourns.push_back(std::move(sojourn));

    // Breakdown: the vehicle fails while departing this stop; remaining
    // planned stops are never visited.
    if (ev.tour_pos + 1 >= faults.breakdown_of(ev.mcv)) {
      abort_tour(plan, ev.mcv, ev.tour_pos + 1, &schedule.mcvs[ev.mcv]);
      continue;
    }

    // Next leg.
    const std::size_t leg = offset(ev.mcv) + ev.tour_pos + 1;
    if (ev.tour_pos + 1 < tour.size()) {
      const double travel =
          leg_seconds(problem, faults, ev.mcv, leg, problem.position(loc),
                      problem.position(tour[ev.tour_pos + 1]));
      events.push({start + duration + travel, ev.mcv, ev.tour_pos + 1});
    } else {
      if (budget_on &&
          !battery[ev.mcv].draw(
              energy::kMoveCostJPerM *
              geom::distance(problem.position(loc), problem.depot()))) {
        // Not enough energy for the depot-return leg: the MCV strands in
        // the field with its tour complete (skipped stays empty).
        OBS_COUNT("exec.energy_aborts", 1);
        abort_tour(plan, ev.mcv, tour.size(), &schedule.mcvs[ev.mcv],
                   BreakdownCause::kEnergyExhausted);
        continue;
      }
      schedule.mcvs[ev.mcv].return_time =
          start + duration + leg_seconds(problem, faults, ev.mcv, leg,
                                         problem.position(loc),
                                         problem.depot());
    }
  }

  if (budget_on) {
    for (std::size_t k = 0; k < schedule.mcvs.size(); ++k) {
      schedule.mcvs[k].energy_spent_j = battery[k].spent();
    }
  }

  // Fix up arrival times: an event re-queued by waiting loses its original
  // arrival; recompute arrivals from travel legs so wait() is meaningful.
  // Sojourn i stands at tour stop i (tours only ever truncate).
  for (std::uint32_t k = 0; k < schedule.mcvs.size(); ++k) {
    auto& sojourns = schedule.mcvs[k].sojourns;
    double clock = depart(k);
    for (std::size_t i = 0; i < sojourns.size(); ++i) {
      Sojourn& s = sojourns[i];
      clock += leg_seconds(problem, faults, k, offset(k) + i, origin(k, i),
                           problem.position(s.location));
      s.arrival = clock;
      MCHARGE_DASSERT(s.start >= s.arrival - 1e-9,
                      "sojourn starts before arrival");
      clock = s.finish;
    }
  }
  return schedule;
}

/// Opens the span of the plan's charge mode around the event loop.
ChargingSchedule execute_traced(const model::ChargingProblem& problem,
                                const ChargingPlan& plan,
                                const ExecutionFaults& faults,
                                const ResumeState& resume) {
  if (plan.mode == ChargeMode::kMultiNode) {
    OBS_SPAN("exec.multinode");
    return execute_tours(problem, plan, faults, resume);
  }
  OBS_SPAN("exec.one_to_one");
  return execute_tours(problem, plan, faults, resume);
}

/// Shape and node-disjointness checks shared by both entries: plans must
/// not reuse a location across or within tours (node-disjoint closed tours
/// per Definition 1).
void check_plan(const model::ChargingProblem& problem,
                const ChargingPlan& plan, const ExecutionFaults& faults) {
  MCHARGE_ASSERT(plan.starts.empty() || plan.starts.size() == plan.tours.size(),
                 "plan.starts must be empty or one per tour");
  MCHARGE_ASSERT(faults.breakdown_after.empty() ||
                     faults.breakdown_after.size() == plan.tours.size(),
                 "breakdown_after must be empty or one entry per tour");
  std::vector<char> used(problem.size(), 0);
  for (const auto& tour : plan.tours) {
    for (std::uint32_t loc : tour) {
      MCHARGE_ASSERT(loc < problem.size(), "plan references unknown location");
      MCHARGE_ASSERT(!used[loc], "plans must visit each location at most once");
      used[loc] = 1;
    }
  }
}

}  // namespace

ChargingSchedule execute_plan(const model::ChargingProblem& problem,
                              const ChargingPlan& plan,
                              const ExecutionFaults& faults) {
  check_plan(problem, plan, faults);
  return execute_traced(problem, plan, faults, ResumeState{});
}

ChargingSchedule execute_plan(const model::ChargingProblem& problem,
                              const ChargingPlan& plan,
                              const ExecutionFaults& faults,
                              const ResumeState& resume) {
  MCHARGE_ASSERT(plan.mode == ChargeMode::kMultiNode,
                 "resume execution is defined for multi-node plans only");
  MCHARGE_ASSERT(plan.starts.size() == plan.tours.size(),
                 "resume plans must carry every MCV's current position");
  check_plan(problem, plan, faults);
  return execute_traced(problem, plan, faults, resume);
}

std::vector<double> prefix_energy_left(
    const model::ChargingProblem& problem, const ChargingSchedule& schedule,
    const std::vector<std::size_t>& prefix_len,
    const energy::McvBudgetSpec& spec) {
  MCHARGE_ASSERT(prefix_len.size() == schedule.mcvs.size(),
                 "one prefix length per MCV");
  std::vector<double> left(schedule.mcvs.size(), spec.capacity_j);
  if (!spec.enabled()) return left;
  for (std::size_t k = 0; k < schedule.mcvs.size(); ++k) {
    const auto& mcv = schedule.mcvs[k];
    energy::McvBattery battery(spec);
    geom::Point from =
        k < schedule.starts.size() ? schedule.starts[k] : problem.depot();
    const std::size_t p = std::min(prefix_len[k], mcv.sojourns.size());
    for (std::size_t i = 0; i < p; ++i) {
      const Sojourn& s = mcv.sojourns[i];
      const bool ok = battery.draw(
          sojourn_energy_j(problem, from, s.location, s.finish - s.start));
      MCHARGE_ASSERT(ok, "an executed prefix sojourn must have been paid for");
      from = problem.position(s.location);
    }
    left[k] = battery.level();
  }
  return left;
}

}  // namespace mcharge::sched
