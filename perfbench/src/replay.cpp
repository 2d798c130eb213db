#include "replay.h"

#include <chrono>

#include "core/replan.h"
#include "graph/mst.h"
#include "matching/matching.h"
#include "obs/obs.h"
#include "schedule/execute.h"
#include "schedule/verify.h"
#include "sim/faults.h"
#include "tsp/construct.h"
#include "tsp/improve.h"

namespace perfbench {

namespace {

using namespace mcharge;
using Clock = std::chrono::steady_clock;

/// Adds the seconds since `start` to `acc` and restarts the clock.
void lap(Clock::time_point& start, double& acc) {
  const auto now = Clock::now();
  acc += std::chrono::duration<double>(now - start).count();
  start = now;
}

std::int64_t counter(const char* name) {
  for (const obs::MetricSnapshot& m : obs::capture().metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// Christofides' MST and odd-vertex matching over depot + sites, numbered
/// as christofides_tour numbers them (vertex 0 is the depot).
void replay_christofides_parts(const tsp::TourProblem& tp,
                               const matching::MatchingOptions& options,
                               KMinMaxReplay& out) {
  std::vector<geom::Point> points;
  points.reserve(tp.size() + 1);
  points.push_back(tp.depot);
  points.insert(points.end(), tp.sites.begin(), tp.sites.end());

  auto t = Clock::now();
  const auto mst = graph::euclidean_mst(points);
  lap(t, out.mst_s);

  std::vector<std::size_t> degree(points.size(), 0);
  for (const auto& e : mst) {
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<geom::Point> odd;
  for (std::size_t v = 0; v < points.size(); ++v) {
    if (degree[v] % 2 == 1) odd.push_back(points[v]);
  }
  out.odd_vertices += odd.size();
  if (options.engine == matching::MatchingEngine::kAuto &&
      odd.size() >= matching::kSparseCrossover &&
      odd.size() <= matching::kBlossomLimit) {
    ++out.sparse_matchings;
  }
  t = Clock::now();
  {
    const obs::EnabledScope traced(true);
    (void)matching::min_weight_euclidean_matching(odd, options);
  }
  lap(t, out.odd_match_s);
}

}  // namespace

void replay_kminmax(const std::vector<CapturedRound>& rounds,
                    const tsp::MinMaxTourOptions& options, KMinMaxReplay& out) {
  const std::int64_t rounds_before = counter("blossom.rounds");
  for (const CapturedRound& round : rounds) {
    const model::ChargingProblem& problem = round.problem;
    const std::size_t k = problem.num_chargers();
    // Built exactly as KMinMaxScheduler::plan builds it.
    tsp::TourProblem tp;
    tp.depot = problem.depot();
    tp.speed = problem.speed();
    tp.sites = problem.positions();
    tp.service = problem.charge_seconds();
    tp.check();

    std::vector<tsp::Tour> tours(k);
    if (tp.size() > 0) {
      // The stages of tsp::min_max_k_tours, in its order.
      auto t = Clock::now();
      tp.ensure_distance_cache();
      lap(t, out.distance_cache_s);
      tsp::Tour tour = tsp::build_tour(tp, options.builder, options.matching);
      lap(t, out.build_s);
      tsp::improve_tour(tp, tour, options.improve);
      lap(t, out.improve_s);
      tsp::SplitResult split = tsp::split_min_max(tp, tour, k, options.energy);
      lap(t, out.split_s);
      if (options.improve_segments) {
        for (tsp::Tour& segment : split.tours) {
          tsp::two_opt(tp, segment, options.improve);
        }
      }
      lap(t, out.segment_two_opt_s);
      tours = std::move(split.tours);
      if (options.builder == tsp::TourBuilder::kChristofides && tp.size() > 1) {
        replay_christofides_parts(tp, options.matching, out);
      }
    }
    ++out.rounds;
    out.sites += tp.size();
    const auto& planned = round.plan.tours;
    bool same = round.plan.mode == sched::ChargeMode::kOneToOne &&
                planned.size() == tours.size();
    for (std::size_t i = 0; same && i < tours.size(); ++i) {
      same = planned[i] == tours[i];
    }
    if (!same) ++out.mismatches;
  }
  out.sparse_rounds += counter("blossom.rounds") - rounds_before;
}

void replay_appro(const std::vector<CapturedRound>& rounds,
                  const core::ApproScheduler& appro, ApproReplay& out) {
  for (const CapturedRound& round : rounds) {
    core::ApproStats stats;
    const sched::ChargingPlan plan =
        appro.plan_with_stats(round.problem, &stats);
    ++out.rounds;
    out.v_s += stats.v_s;
    out.v_h += stats.v_h;
    if (plan.mode != round.plan.mode || plan.tours != round.plan.tours ||
        plan.starts.size() != round.plan.starts.size()) {
      ++out.mismatches;
    }
  }
}

void replay_verify(const std::vector<CapturedRound>& rounds,
                   const sim::SimConfig& config, VerifyReplay& out) {
  const sim::FaultModel fault_model(config.faults);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const CapturedRound& round = rounds[r];
    // The round's fault bundle as sim::simulate builds it; the captured
    // plans are the simulation's rounds in order, so r is the round index.
    sched::ExecutionFaults faults;
    if (fault_model.enabled()) faults = fault_model.round_faults(r, round.plan);
    if (config.mcv_budget.enabled()) faults.budget = config.mcv_budget;
    sched::VerifyOptions options;
    options.require_full_coverage = false;
    ++out.schedules;
    if (!faults.any()) {
      const sched::ChargingSchedule schedule =
          sched::execute_plan(round.problem, round.plan);
      auto t = Clock::now();
      (void)sched::verify_schedule(round.problem, schedule, options);
      lap(t, out.verify_s);
      continue;
    }
    // Faulty round: the partial primary schedule under the fault bundle,
    // then the recovery wave (if any) as a schedule of its own.
    const core::RecoveryOutcome outcome =
        core::recover_round(round.problem, round.plan, faults, config.recovery);
    options.allow_partial = true;
    options.faults = &faults;
    auto t = Clock::now();
    (void)sched::verify_schedule(round.problem, outcome.primary, options);
    if (outcome.has_recovery) {
      (void)sched::verify_schedule(outcome.replan.subproblem, outcome.recovery);
    }
    lap(t, out.verify_s);
    ++out.faulty_schedules;
  }
}

}  // namespace perfbench
