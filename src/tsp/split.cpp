#include "tsp/split.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::tsp {

namespace {

/// Greedily cuts `tour` into segments of delay <= budget. Returns the
/// segments, or an empty optional-equivalent (ok=false) if some single
/// site alone exceeds the budget.
struct GreedyCut {
  bool ok = false;
  std::vector<Tour> segments;
};

GreedyCut greedy_cut(const TourProblem& p, const Tour& tour, double budget,
                     const SegmentEnergyCap& cap) {
  GreedyCut result;
  Tour current;
  double internal = 0.0;  // travel within segment + service
  // Energy bookkeeping (cap only): internal travel / service seconds,
  // tracked separately so joules can be priced per component. The delay
  // accumulator above is left bit-for-bit untouched — with a disabled cap
  // the cut decisions are exactly the delay-only ones.
  double etravel = 0.0;
  double eservice = 0.0;
  for (std::size_t i = 0; i < tour.size(); ++i) {
    const SiteId v = tour[i];
    const double solo = 2.0 * p.travel_depot(v) + p.service[v];
    if (solo > budget) return result;  // infeasible budget
    if (current.empty()) {
      current.push_back(v);
      internal = p.service[v];
      etravel = 0.0;
      eservice = p.service[v];
      continue;
    }
    const double extended = p.travel_depot(current.front()) + internal +
                            p.travel(current.back(), v) + p.service[v] +
                            p.travel_depot(v);
    bool fits = extended <= budget;
    if (fits && cap.enabled()) {
      // A single site over the cap is still admitted as its own segment
      // (the executor's budget machinery handles the overdraw); only
      // *extending* past the cap forces a cut.
      const double joules =
          (p.travel_depot(current.front()) + etravel +
           p.travel(current.back(), v) + p.travel_depot(v)) *
              cap.travel_power_w +
          (eservice + p.service[v]) * cap.service_power_w;
      fits = joules <= cap.budget_j;
    }
    if (fits) {
      internal += p.travel(current.back(), v) + p.service[v];
      etravel += p.travel(current.back(), v);
      eservice += p.service[v];
      current.push_back(v);
    } else {
      result.segments.push_back(std::move(current));
      current = {v};
      internal = p.service[v];
      etravel = 0.0;
      eservice = p.service[v];
    }
  }
  if (!current.empty()) result.segments.push_back(std::move(current));
  result.ok = true;
  return result;
}

double max_segment_delay(const TourProblem& p, const std::vector<Tour>& segs) {
  double worst = 0.0;
  for (const auto& s : segs) worst = std::max(worst, tour_delay(p, s));
  return worst;
}

}  // namespace

SplitResult split_min_max(const TourProblem& problem, const Tour& tour,
                          std::size_t k, const SegmentEnergyCap& cap) {
  MCHARGE_ASSERT(k >= 1, "split requires k >= 1");
  MCHARGE_ASSERT(is_complete_tour(problem, tour),
                 "split requires a complete tour");
  problem.ensure_distance_cache();
  SplitResult result;
  if (tour.empty()) {
    result.tours.assign(k, Tour{});
    return result;
  }

  // Lower bound: the hardest single site. Upper bound: whole tour as one.
  // The upper bound gets a relative nudge so that accumulation-order
  // floating-point noise cannot make the whole-tour budget "infeasible".
  double lo0 = -std::numeric_limits<double>::infinity();
  for (const SiteId v : tour) {
    const double solo = 2.0 * problem.travel_depot(v) + problem.service[v];
    if (solo > lo0) lo0 = solo;
  }
  double lo = std::max(0.0, lo0);
  double hi = std::max(lo, tour_delay(problem, tour));
  hi += 1e-9 * std::max(1.0, hi);

  SegmentEnergyCap use = cap;
  GreedyCut best = greedy_cut(problem, tour, hi, use);
  if (use.enabled() && best.ok && best.segments.size() > k) {
    // The energy cap and the fleet size cannot both hold even at the
    // loosest delay budget: drop the cap (best effort — the executor's
    // budget machinery turns any residual overdraw into a recoverable,
    // cause-tagged abort) and redo the feasibility anchor.
    use = SegmentEnergyCap{};
    best = greedy_cut(problem, tour, hi, use);
  }
  MCHARGE_ASSERT(best.ok && best.segments.size() <= std::max<std::size_t>(k, 1),
                 "whole-tour budget must be feasible");

  // Binary search the smallest budget whose greedy cut uses <= k segments.
  for (int iter = 0; iter < 64 && hi - lo > 1e-9 * std::max(1.0, hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    GreedyCut cut = greedy_cut(problem, tour, mid, use);
    if (cut.ok && cut.segments.size() <= k) {
      best = std::move(cut);
      hi = mid;
    } else {
      lo = mid;
    }
  }

  result.tours = std::move(best.segments);
  result.tours.resize(k);  // pad with empty tours
  result.max_delay = max_segment_delay(problem, result.tours);
  return result;
}

SplitResult min_max_k_tours(const TourProblem& problem, std::size_t k,
                            const MinMaxTourOptions& options) {
  problem.check();
  if (problem.size() == 0) {
    SplitResult r;
    r.tours.assign(k, Tour{});
    return r;
  }
  // One O(m^2) distance build serves construction, improvement, and
  // splitting below; every travel() call after this is a table read.
  problem.ensure_distance_cache();
  // One span per stage; tracing never changes a result.
  Tour tour;
  {
    OBS_SPAN("tsp.construct");
    tour = christofides_tour(problem, options.matching);
  }
  {
    OBS_SPAN("tsp.improve_tour");
    improve_tour(problem, tour, options.improve);
  }
  SplitResult result;
  {
    OBS_SPAN("tsp.split");
    result = split_min_max(problem, tour, k, options.energy);
  }
  if (options.improve_segments) {
    OBS_SPAN("tsp.segment_improve");
    for (Tour& segment : result.tours) {
      two_opt(problem, segment, options.improve);
    }
    result.max_delay = max_segment_delay(problem, result.tours);
  }
  return result;
}

}  // namespace mcharge::tsp
