#include "core/replan.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/overlap_graph.h"
#include "graph/mis.h"
#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::core {

std::size_t FleetState::num_charged() const {
  std::size_t total = 0;
  for (char c : charged) total += (c != 0);
  return total;
}

namespace {

geom::Point interpolate(geom::Point from, geom::Point to, double fraction) {
  return from + (to - from) * fraction;
}

/// Position of one MCV at time t.
geom::Point mcv_position_at(const model::ChargingProblem& problem,
                            const sched::McvSchedule& mcv, geom::Point start,
                            double t) {
  if (mcv.sojourns.empty()) return start;
  // Before reaching the first stop: on the start -> first leg.
  const geom::Point first = problem.position(mcv.sojourns.front().location);
  if (t < mcv.sojourns.front().arrival) {
    const double leg = mcv.sojourns.front().arrival;
    return leg > 0.0 ? interpolate(start, first, std::max(0.0, t) / leg)
                     : first;
  }
  for (std::size_t i = 0; i < mcv.sojourns.size(); ++i) {
    const auto& s = mcv.sojourns[i];
    const geom::Point here = problem.position(s.location);
    if (t <= s.finish) return here;
    const bool last = i + 1 == mcv.sojourns.size();
    // An aborted tour ended in the field: no depot leg was ever driven.
    if (last && mcv.aborted) return here;
    const geom::Point next =
        last ? problem.depot() : problem.position(mcv.sojourns[i + 1].location);
    const double depart = s.finish;
    const double arrive = last ? mcv.return_time : mcv.sojourns[i + 1].arrival;
    if (t < arrive) {
      const double span = arrive - depart;
      return span > 0.0 ? interpolate(here, next, (t - depart) / span) : next;
    }
  }
  return problem.depot();  // tour completed
}

/// Rebuilds a schedule's charged_at from its sojourns' charge sets.
void rebuild_charged_at(std::size_t num_sensors,
                        sched::ChargingSchedule* schedule) {
  schedule->charged_at.assign(num_sensors, sched::kNeverCharged);
  for (const auto& mcv : schedule->mcvs) {
    for (const auto& s : mcv.sojourns) {
      for (std::uint32_t u : s.charged) schedule->charged_at[u] = s.finish;
    }
  }
}

}  // namespace

FleetState fleet_state_at(const model::ChargingProblem& problem,
                          const sched::ChargingSchedule& schedule, double t) {
  FleetState state;
  state.time = t;
  state.charged.assign(problem.size(), 0);
  for (std::uint32_t v = 0; v < problem.size(); ++v) {
    if (v < schedule.charged_at.size() &&
        schedule.charged_at[v] != sched::kNeverCharged &&
        schedule.charged_at[v] <= t) {
      state.charged[v] = 1;
    }
  }
  for (std::size_t k = 0; k < schedule.mcvs.size(); ++k) {
    const geom::Point start =
        k < schedule.starts.size() ? schedule.starts[k] : problem.depot();
    state.mcv_positions.push_back(
        mcv_position_at(problem, schedule.mcvs[k], start, t));
  }
  return state;
}

double RecoveryOutcome::longest_delay() const {
  double worst = primary.longest_delay();
  if (has_recovery) {
    worst = std::max(worst, recovery_offset_s + recovery.longest_delay());
  }
  return worst;
}

std::vector<double> RecoveryOutcome::charged_at() const {
  std::vector<double> at = primary.charged_at;
  if (!has_recovery) return at;
  for (std::size_t i = 0; i < replan.original_index.size(); ++i) {
    if (recovery.charged_at[i] == sched::kNeverCharged) continue;
    at[replan.original_index[i]] = recovery_offset_s + recovery.charged_at[i];
  }
  return at;
}

ReplanResult replan_from(const model::ChargingProblem& problem,
                         const FleetState& state) {
  MCHARGE_ASSERT(state.charged.size() == problem.size(),
                 "fleet state does not match problem");
  const std::size_t k = state.mcv_positions.size();
  MCHARGE_ASSERT(k >= 1, "replan requires at least one MCV position");

  ReplanResult result;
  // Sub-problem over the uncharged sensors.
  std::vector<geom::Point> positions;
  std::vector<double> deficits;
  for (std::uint32_t v = 0; v < problem.size(); ++v) {
    if (state.charged[v]) continue;
    result.original_index.push_back(v);
    positions.push_back(problem.position(v));
    deficits.push_back(problem.charge_seconds(v));
  }
  // Its coverage lists are the round problem's induced on the subset.
  std::vector<std::uint32_t> slot(problem.size(),
                                  model::CoverageLists::kNoSlot);
  result.subproblem = model::ChargingProblem(
      std::move(positions), std::move(deficits),
      problem.coverage_lists().induced(result.original_index, slot),
      problem.depot(), problem.gamma(), problem.speed(), k);
  result.subproblem.set_charging_rate(problem.charging_rate_w());

  result.plan.mode = sched::ChargeMode::kMultiNode;
  result.plan.tours.assign(k, {});
  result.plan.starts = state.mcv_positions;
  if (result.subproblem.size() == 0) return result;

  // Sojourn stops: MIS of the charging graph over the remaining sensors
  // (a dominating set, so every uncharged sensor is covered).
  const graph::Graph gc = charging_graph(result.subproblem);
  std::vector<graph::Vertex> stops = graph::maximal_independent_set(gc);

  // Greedy balanced assignment: the MCV with the least accumulated delay
  // takes its nearest unassigned stop.
  std::vector<geom::Point> at = state.mcv_positions;
  std::vector<double> load(k, 0.0);
  std::vector<char> taken(stops.size(), 0);
  for (std::size_t step = 0; step < stops.size(); ++step) {
    std::size_t mcv = 0;
    for (std::size_t j = 1; j < k; ++j) {
      if (load[j] < load[mcv]) mcv = j;
    }
    // Nearest-stop argmin over squared distances: sqrt is strictly
    // monotone, so the strict < keeps the same winner and the same
    // lowest-index tie-break as comparing geom::distance directly —
    // byte-identical tours for one sqrt per step instead of per scan.
    const geom::Point from = at[mcv];
    double best_sq = std::numeric_limits<double>::infinity();
    std::size_t best_i = 0;
    bool found = false;
    for (std::size_t i = 0; i < stops.size(); ++i) {
      if (taken[i]) continue;
      const double d_sq =
          geom::distance_sq(from, result.subproblem.position(stops[i]));
      if (d_sq < best_sq) {
        best_sq = d_sq;
        best_i = i;
        found = true;
      }
    }
    MCHARGE_ASSERT(found, "an untaken stop must remain");
    taken[best_i] = 1;
    const graph::Vertex stop = stops[best_i];
    result.plan.tours[mcv].push_back(stop);
    load[mcv] += std::sqrt(best_sq) / result.subproblem.speed() +
                 result.subproblem.tau(stop);
    at[mcv] = result.subproblem.position(stop);
  }
  return result;
}

namespace {

/// Cost of inserting stop `o` at position `p` of MCV `k`'s tour: travel
/// delta (nominal, jitter-free — it is a routing estimate) plus the stop's
/// sojourn duration. `p` may equal tour.size() (insert before the depot
/// leg).
double insertion_delta(const model::ChargingProblem& problem,
                       const sched::ChargingPlan& plan, std::size_t k,
                       const std::vector<std::uint32_t>& tour, std::size_t p,
                       std::uint32_t o) {
  const double tau = problem.tau(o);
  if (tour.empty()) {
    const geom::Point start = plan.start_of(k, problem.depot());
    return geom::distance(start, problem.position(o)) / problem.speed() +
           tau + problem.travel_depot(o);
  }
  if (p == 0) {
    const geom::Point start = plan.start_of(k, problem.depot());
    const double to_o =
        geom::distance(start, problem.position(o)) / problem.speed();
    const double old_leg =
        geom::distance(start, problem.position(tour[0])) / problem.speed();
    return to_o + problem.travel(o, tour[0]) - old_leg + tau;
  }
  if (p == tour.size()) {
    return problem.travel(tour[p - 1], o) + problem.travel_depot(o) -
           problem.travel_depot(tour[p - 1]) + tau;
  }
  return problem.travel(tour[p - 1], o) + problem.travel(o, tour[p]) -
         problem.travel(tour[p - 1], tour[p]) + tau;
}

}  // namespace

RecoveryOutcome recover_round(const model::ChargingProblem& problem,
                              const sched::ChargingPlan& plan,
                              const sched::ExecutionFaults& faults,
                              RecoveryPolicy policy) {
  OBS_SPAN("exec.recover_round");
  RecoveryOutcome out;
  out.primary = sched::execute_plan(problem, plan, faults);
  out.stats.breakdowns = out.primary.num_aborted();
  if (!out.primary.partial()) return out;
  const double broken_delay = out.primary.longest_delay();

  // Orphans: sensors this plan would have charged absent the breakdowns
  // (same jitter draws), but the broken execution did not. Comparing
  // against the intended execution — not against full coverage — keeps
  // the notion correct for baseline plans that legitimately skip sensors.
  // The energy budget is lifted too: an energy-exhaustion abort orphans
  // its remaining stops exactly like a coin-flip breakdown does.
  sched::ExecutionFaults no_break = faults;
  no_break.breakdown_after.clear();
  no_break.budget = energy::McvBudgetSpec{};
  const sched::ChargingSchedule intended =
      sched::execute_plan(problem, plan, no_break);
  std::vector<std::uint32_t> orphans;
  for (std::uint32_t v = 0; v < problem.size(); ++v) {
    if (intended.charged_at[v] != sched::kNeverCharged &&
        out.primary.charged_at[v] == sched::kNeverCharged) {
      orphans.push_back(v);
    }
  }
  out.stats.orphaned_sensors = orphans.size();

  const std::size_t num_survivors =
      plan.tours.size() - out.primary.num_aborted();
  if (policy == RecoveryPolicy::kDefer || orphans.empty() ||
      num_survivors == 0) {
    out.stats.deferred_sensors = orphans.size();
    return out;
  }

  if (policy == RecoveryPolicy::kGraft) {
    // The base station learns of the first breakdown at t1; stops a
    // survivor has already begun by then cannot be rerouted.
    double t1 = std::numeric_limits<double>::infinity();
    for (const auto& mcv : out.primary.mcvs) {
      if (mcv.aborted) t1 = std::min(t1, mcv.return_time);
    }
    sched::ChargingPlan patched = plan;
    std::vector<std::uint32_t> orphan_stops;
    std::vector<std::size_t> cut(plan.tours.size(), 0);
    std::vector<double> est(plan.tours.size(), 0.0);
    for (std::size_t k = 0; k < plan.tours.size(); ++k) {
      const auto& mcv = out.primary.mcvs[k];
      if (mcv.aborted) {
        // Keep only the completed prefix so the orphaned stops can be
        // reassigned without breaking node-disjointness. The completed
        // sojourn count truncates the tour at exactly the breakdown
        // sojourn for a coin-flip abort and at the unaffordable stop for
        // an energy abort (whose breakdown_of is kNoBreakdown).
        for (std::uint32_t s : mcv.skipped) orphan_stops.push_back(s);
        patched.tours[k].resize(mcv.sojourns.size());
        cut[k] = std::numeric_limits<std::size_t>::max();  // ineligible
      } else {
        for (const auto& s : mcv.sojourns) {
          if (s.start <= t1) ++cut[k];
        }
        est[k] = mcv.return_time;
      }
    }
    // Cheapest insertion of each orphaned stop into a surviving tour, at
    // or after the survivor's fixed prefix; ties break to the lowest MCV
    // id, then the lowest position — deterministic by construction.
    for (std::uint32_t o : orphan_stops) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_k = 0, best_p = 0;
      for (std::size_t k = 0; k < patched.tours.size(); ++k) {
        if (cut[k] == std::numeric_limits<std::size_t>::max()) continue;
        const auto& tour = patched.tours[k];
        const std::size_t first_p = std::min(cut[k], tour.size());
        for (std::size_t p = first_p; p <= tour.size(); ++p) {
          const double cost =
              est[k] + insertion_delta(problem, patched, k, tour, p, o);
          if (cost < best) {
            best = cost;
            best_k = k;
            best_p = p;
          }
          if (tour.empty()) break;  // only one insertion point
        }
      }
      MCHARGE_ASSERT(best < std::numeric_limits<double>::infinity(),
                     "graft requires a surviving MCV");
      est[best_k] += insertion_delta(problem, patched, best_k,
                                     patched.tours[best_k], best_p, o);
      patched.tours[best_k].insert(
          patched.tours[best_k].begin() +
              static_cast<std::ptrdiff_t>(best_p),
          o);
    }
    OBS_COUNT("exec.grafted_stops", static_cast<std::int64_t>(
                                        orphan_stops.size()));
    // Execute only the part of the patched plan that has not happened
    // yet. The first cut[k] sojourns of each survivor (and everything an
    // aborted MCV did) are physical history: re-executing the patched
    // plan from t = 0 would rewind time — grafted stops could start
    // before the breakdown was even known, and inserted stops would
    // shift the fault-leg indices of legs already driven. Instead,
    // freeze those prefixes and resume each survivor from its prefix's
    // finish with suffix legs indexed at cut[k] + i, so the merged
    // schedule reads exactly like one uninterrupted execution.
    std::vector<char> is_orphan(problem.size(), 0);
    for (std::uint32_t o : orphan_stops) is_orphan[o] = 1;
    sched::ChargingPlan suffix;
    suffix.mode = sched::ChargeMode::kMultiNode;
    suffix.tours.assign(plan.tours.size(), {});
    suffix.starts.resize(plan.tours.size());
    sched::ResumeState resume;
    resume.depart_at.assign(plan.tours.size(), 0.0);
    resume.leg_offset.assign(plan.tours.size(), 0);
    resume.charged.assign(problem.size(), 0);
    std::vector<std::size_t> prefix_lens(plan.tours.size(), 0);
    for (std::size_t k = 0; k < plan.tours.size(); ++k) {
      const auto& mcv = out.primary.mcvs[k];
      const std::size_t prefix_len =
          mcv.aborted ? mcv.sojourns.size() : std::min(cut[k],
                                                       mcv.sojourns.size());
      prefix_lens[k] = prefix_len;
      for (std::size_t i = 0; i < prefix_len; ++i) {
        const auto& s = mcv.sojourns[i];
        for (std::uint32_t u : s.charged) resume.charged[u] = 1;
        if (s.finish > s.start) {
          resume.busy.push_back({static_cast<std::uint32_t>(k), s.location,
                                 s.start, s.finish});
        }
      }
      if (mcv.aborted) continue;  // no suffix; merged output keeps it as is
      const auto& tour = patched.tours[k];
      suffix.tours[k].assign(tour.begin() +
                                 static_cast<std::ptrdiff_t>(prefix_len),
                             tour.end());
      suffix.starts[k] =
          prefix_len == 0
              ? plan.start_of(k, problem.depot())
              : problem.position(mcv.sojourns[prefix_len - 1].location);
      resume.leg_offset[k] = static_cast<std::uint32_t>(prefix_len);
      resume.depart_at[k] =
          prefix_len == 0 ? 0.0 : mcv.sojourns[prefix_len - 1].finish;
      // The base station learns of the breakdown at t1; a survivor can be
      // sent to a grafted stop no earlier than that. Planned stops of its
      // own tour need no hold — the MCV was already on its way.
      if (!suffix.tours[k].empty() && is_orphan[suffix.tours[k][0]]) {
        resume.depart_at[k] = std::max(resume.depart_at[k], t1);
      }
    }
    // Same jitter draws, but the breakdowns already happened in the
    // prefix — the suffix must not truncate again. The energy budget
    // stays in force (a survivor's battery does not refill mid-round):
    // each battery resumes from the joules its frozen prefix left, so a
    // grafted detour can itself exhaust a survivor — another
    // kEnergyExhausted abort, whose stops simply defer to the next round.
    sched::ExecutionFaults resume_faults = faults;
    resume_faults.breakdown_after.clear();
    if (faults.budget.enabled()) {
      resume.energy_left = sched::prefix_energy_left(
          problem, out.primary, prefix_lens, faults.budget);
    }
    const sched::ChargingSchedule resumed =
        sched::execute_plan(problem, suffix, resume_faults, resume);

    sched::ChargingSchedule merged;
    merged.mode = sched::ChargeMode::kMultiNode;
    merged.starts = out.primary.starts;
    merged.mcvs.resize(plan.tours.size());
    for (std::size_t k = 0; k < plan.tours.size(); ++k) {
      const auto& orig = out.primary.mcvs[k];
      auto& m = merged.mcvs[k];
      if (orig.aborted) {
        m = orig;
        continue;
      }
      m.sojourns.assign(orig.sojourns.begin(),
                        orig.sojourns.begin() +
                            static_cast<std::ptrdiff_t>(
                                std::min(cut[k], orig.sojourns.size())));
      if (suffix.tours[k].empty()) {
        m.sojourns = orig.sojourns;
        m.return_time = orig.return_time;
        m.energy_spent_j = orig.energy_spent_j;
      } else {
        const auto& res = resumed.mcvs[k];
        m.sojourns.insert(m.sojourns.end(), res.sojourns.begin(),
                          res.sojourns.end());
        // The suffix battery resumed from the prefix's joules, so its
        // spend is already cumulative over the whole round — and under a
        // tight budget the suffix itself may have aborted. An abort before
        // the first suffix stop reports the suffix-local instant 0; the
        // merged tour ends at its last completed sojourn instead.
        m.return_time = res.aborted
                            ? (m.sojourns.empty() ? 0.0
                                                  : m.sojourns.back().finish)
                            : res.return_time;
        m.energy_spent_j = res.energy_spent_j;
        m.aborted = res.aborted;
        m.abort_cause = res.abort_cause;
        m.skipped = res.skipped;
      }
    }
    rebuild_charged_at(problem.size(), &merged);
    out.primary = std::move(merged);
    // A grafted detour can exhaust a survivor's battery, so the suffix
    // may have added failures the pre-graft count missed. Without a
    // budget the suffix cannot abort (its breakdowns are cleared) and
    // this recount is a no-op.
    out.stats.breakdowns = out.primary.num_aborted();
  } else {
    // kReplan: once the last breakdown is known (t_rec), recall every
    // survivor after the stop it is executing, then run a fresh
    // reduced-fleet plan over everything still uncharged as a second
    // wave that starts only after all primary activity has ended.
    double t_rec = 0.0;
    for (const auto& mcv : out.primary.mcvs) {
      if (mcv.aborted) t_rec = std::max(t_rec, mcv.return_time);
    }
    sched::ChargingSchedule kept = out.primary;
    for (std::size_t k = 0; k < kept.mcvs.size(); ++k) {
      auto& mcv = kept.mcvs[k];
      if (mcv.aborted) continue;
      std::size_t keep = 0;
      while (keep < mcv.sojourns.size() &&
             mcv.sojourns[keep].start <= t_rec) {
        ++keep;
      }
      if (keep == mcv.sojourns.size()) continue;  // tour completes normally
      for (std::size_t i = keep; i < mcv.sojourns.size(); ++i) {
        mcv.skipped.push_back(mcv.sojourns[i].location);
      }
      mcv.sojourns.resize(keep);
      mcv.aborted = true;
      mcv.return_time = keep == 0 ? 0.0 : mcv.sojourns.back().finish;
    }
    rebuild_charged_at(problem.size(), &kept);
    if (faults.budget.enabled()) {
      // A recalled survivor's tour was truncated above, so its energy
      // account must be re-settled to the recall point (the primary
      // execution's figure includes sojourns that now never happen).
      std::vector<std::size_t> kept_len(kept.mcvs.size(), 0);
      for (std::size_t k = 0; k < kept.mcvs.size(); ++k) {
        kept_len[k] = kept.mcvs[k].sojourns.size();
      }
      const std::vector<double> left =
          sched::prefix_energy_left(problem, kept, kept_len, faults.budget);
      for (std::size_t k = 0; k < kept.mcvs.size(); ++k) {
        if (kept.mcvs[k].aborted && !out.primary.mcvs[k].aborted) {
          kept.mcvs[k].energy_spent_j = faults.budget.capacity_j - left[k];
        }
      }
    }
    // The recovery wave starts after every kept sojourn has finished and
    // every un-recalled survivor is back home, so the two waves can never
    // charge concurrently.
    double t_base = t_rec;
    for (const auto& mcv : kept.mcvs) {
      if (!mcv.sojourns.empty()) {
        t_base = std::max(t_base, mcv.sojourns.back().finish);
      }
      if (!mcv.aborted) t_base = std::max(t_base, mcv.return_time);
    }
    // The second wave's fleet is every MCV the primary wave did not lose,
    // where it stands at t_base: a recalled survivor at its last kept
    // stop, a finished one at the depot, an idle one at its start.
    FleetState state = fleet_state_at(problem, kept, t_base);
    std::vector<geom::Point> survivors;
    for (std::size_t k = 0; k < kept.mcvs.size(); ++k) {
      if (!out.primary.mcvs[k].aborted) {
        survivors.push_back(state.mcv_positions[k]);
      }
    }
    state.mcv_positions = std::move(survivors);
    out.primary = std::move(kept);
    out.replan = replan_from(problem, state);
    out.recovery = sched::execute_plan(out.replan.subproblem, out.replan.plan);
    out.recovery_offset_s = t_base;
    out.has_recovery = true;
  }

  // Stats: compare what the round finally charged against the broken
  // execution (recovered) and the intended one (deferred).
  const std::vector<double> final_at = out.charged_at();
  for (std::uint32_t v : orphans) {
    if (final_at[v] != sched::kNeverCharged) ++out.stats.recovered_sensors;
  }
  for (std::uint32_t v = 0; v < problem.size(); ++v) {
    if (intended.charged_at[v] != sched::kNeverCharged &&
        final_at[v] == sched::kNeverCharged) {
      ++out.stats.deferred_sensors;
    }
  }
  out.stats.extra_delay_s =
      std::max(0.0, out.longest_delay() - broken_delay);
  return out;
}

}  // namespace mcharge::core
