#include "schedule/verify.h"

#include <algorithm>
#include <sstream>

namespace mcharge::sched {

namespace {

/// Slack in seconds for the time comparisons.
constexpr double kToleranceS = 1e-6;

std::string fmt(const char* what, std::uint32_t mcv, std::size_t stop,
                const std::string& detail) {
  std::ostringstream os;
  os << what << " (mcv " << mcv << ", stop " << stop << "): " << detail;
  return os.str();
}

}  // namespace

std::vector<std::string> verify_schedule(const model::ChargingProblem& problem,
                                         const ChargingSchedule& schedule,
                                         const VerifyOptions& options) {
  std::vector<std::string> violations;
  const double eps = kToleranceS;

  // --- Per-MCV timing and charge-set checks. ---
  std::vector<int> charged_by(problem.size(), -1);
  std::vector<char> visited(problem.size(), 0);
  for (std::uint32_t k = 0; k < schedule.mcvs.size(); ++k) {
    const auto& mcv = schedule.mcvs[k];
    double clock = 0.0;
    for (std::size_t i = 0; i < mcv.sojourns.size(); ++i) {
      const Sojourn& s = mcv.sojourns[i];
      if (s.location >= problem.size()) {
        violations.push_back(fmt("bad location", k, i, "index out of range"));
        continue;
      }
      if (visited[s.location]) {
        violations.push_back(
            fmt("revisited location", k, i,
                "location " + std::to_string(s.location) + " already used"));
      }
      visited[s.location] = 1;

      const geom::Point start = k < schedule.starts.size()
                                    ? schedule.starts[k]
                                    : problem.depot();
      double travel =
          i == 0 ? geom::distance(start, problem.position(s.location)) /
                       problem.speed()
                 : problem.travel(mcv.sojourns[i - 1].location, s.location);
      if (options.faults) travel *= options.faults->travel_mult(k, i);
      if (s.arrival + eps < clock + travel) {
        violations.push_back(fmt("early arrival", k, i,
                                 "arrival precedes previous finish + travel"));
      }
      if (s.start + eps < s.arrival) {
        violations.push_back(fmt("start before arrival", k, i, ""));
      }
      if (s.finish + eps < s.start) {
        violations.push_back(fmt("negative duration", k, i, ""));
      }

      // Charge set must lie in the coverage disk (multi-node) or be exactly
      // the parked sensor (one-to-one), and the duration must cover the
      // slowest sensor in the set.
      double needed = 0.0;
      for (std::uint32_t u : s.charged) {
        if (u >= problem.size()) {
          violations.push_back(fmt("bad charged sensor", k, i, ""));
          continue;
        }
        needed = std::max(needed, problem.charge_seconds(u));
        const bool in_range =
            schedule.mode == ChargeMode::kMultiNode
                ? std::ranges::binary_search(problem.coverage(s.location), u)
                : u == s.location;
        if (!in_range) {
          violations.push_back(
              fmt("charge outside range", k, i,
                  "sensor " + std::to_string(u) + " not chargeable from " +
                      std::to_string(s.location)));
        }
        if (charged_by[u] != -1) {
          violations.push_back(fmt(
              "double charge", k, i,
              "sensor " + std::to_string(u) + " already charged by mcv " +
                  std::to_string(charged_by[u])));
        } else {
          charged_by[u] = static_cast<int>(k);
        }
      }
      if (options.faults) needed *= options.faults->charge_mult(s.location);
      if (s.finish - s.start + eps < needed) {
        violations.push_back(
            fmt("undercharge", k, i,
                "duration shorter than the largest deficit in the set"));
      }
      clock = s.finish;
    }
    if (mcv.aborted) {
      if (!options.allow_partial) {
        violations.push_back(fmt("aborted tour", k, mcv.sojourns.size(),
                                 "tour truncated but partial schedules are "
                                 "not allowed here"));
      } else if (std::abs(mcv.return_time - clock) > eps) {
        // An aborted tour ends where it stopped: return_time is the last
        // completed sojourn's finish (0 if it never reached a stop).
        violations.push_back(fmt("wrong abort time", k,
                                 mcv.sojourns.size(),
                                 "return_time of an aborted tour must equal "
                                 "the last completed finish"));
      }
    } else if (!mcv.sojourns.empty()) {
      double depot_leg = problem.travel_depot(mcv.sojourns.back().location);
      if (options.faults) {
        // The depot-return leg's index is the tour length, which for a
        // completed tour equals the number of sojourns.
        depot_leg *= options.faults->travel_mult(k, mcv.sojourns.size());
      }
      const double expected_return = clock + depot_leg;
      if (std::abs(mcv.return_time - expected_return) > eps) {
        violations.push_back(fmt("wrong return time", k,
                                 mcv.sojourns.size() - 1, ""));
      }
    }
  }

  // --- MCV energy budget (only for executions under an enabled budget).
  // Re-derived from the raw sojourn records with the executor's draw
  // model: arrival-leg meters + radiated energy per sojourn, plus the
  // depot-return leg for tours that made it home. Two checks per MCV:
  // the round must fit the battery, and the executor's own account
  // (energy_spent_j) must agree with the recomputation.
  if (options.faults && options.faults->budget.enabled()) {
    const energy::McvBudgetSpec& budget = options.faults->budget;
    const double tol_j = 1e-6 * std::max(1.0, budget.capacity_j);
    for (std::uint32_t k = 0; k < schedule.mcvs.size(); ++k) {
      const auto& mcv = schedule.mcvs[k];
      if (mcv.abort_cause != BreakdownCause::kNone && !mcv.aborted) {
        violations.push_back(fmt("phantom breakdown cause", k, 0,
                                 "abort_cause set on a completed tour"));
      }
      double spent = 0.0;
      geom::Point prev =
          k < schedule.starts.size() ? schedule.starts[k] : problem.depot();
      for (const Sojourn& s : mcv.sojourns) {
        if (s.location >= problem.size()) continue;  // reported above
        spent += energy::kMoveCostJPerM *
                 geom::distance(prev, problem.position(s.location));
        spent += s.duration() * problem.charging_rate_w();
        prev = problem.position(s.location);
      }
      if (!mcv.aborted && !mcv.sojourns.empty()) {
        spent += energy::kMoveCostJPerM * geom::distance(prev, problem.depot());
      }
      if (spent > budget.capacity_j + tol_j) {
        violations.push_back(fmt("energy budget exceeded", k,
                                 mcv.sojourns.size(),
                                 "tour draws more than the MCV battery"));
      }
      if (std::abs(spent - mcv.energy_spent_j) > tol_j) {
        violations.push_back(fmt("energy accounting mismatch", k,
                                 mcv.sojourns.size(),
                                 "reported energy_spent_j disagrees with "
                                 "the recomputed draw"));
      }
    }
  }

  // --- Coverage. ---
  if (options.require_full_coverage) {
    for (std::uint32_t u = 0; u < problem.size(); ++u) {
      if (charged_by[u] == -1) {
        violations.push_back("uncovered sensor " + std::to_string(u));
      }
    }
  }

  // --- No simultaneous charging of a shared sensor (multi-node only). ---
  if (schedule.mode == ChargeMode::kMultiNode) {
    struct Interval {
      std::uint32_t mcv;
      std::uint32_t location;
      double start, finish;
    };
    std::vector<Interval> intervals;
    for (std::uint32_t k = 0; k < schedule.mcvs.size(); ++k) {
      for (const auto& s : schedule.mcvs[k].sojourns) {
        if (s.finish > s.start) {
          intervals.push_back({k, s.location, s.start, s.finish});
        }
      }
    }
    for (std::size_t a = 0; a < intervals.size(); ++a) {
      for (std::size_t b = a + 1; b < intervals.size(); ++b) {
        const auto& x = intervals[a];
        const auto& y = intervals[b];
        if (x.mcv == y.mcv) continue;
        const bool time_overlap =
            x.start < y.finish - eps && y.start < x.finish - eps;
        if (!time_overlap) continue;
        if (problem.overlapping(x.location, y.location)) {
          std::ostringstream os;
          os << "simultaneous charging conflict: mcv " << x.mcv << " at "
             << x.location << " [" << x.start << ", " << x.finish
             << ") overlaps mcv " << y.mcv << " at " << y.location << " ["
             << y.start << ", " << y.finish << ")";
          violations.push_back(os.str());
        }
      }
    }
  }

  return violations;
}

}  // namespace mcharge::sched
