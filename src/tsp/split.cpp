#include "tsp/split.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::tsp {

namespace {

/// One tour position's legs, computed once per split: the depot <->
/// tour[i] travel time, the tour[i-1] -> tour[i] travel time (unused at
/// i = 0) and tour[i]'s service time. The greedy cut reads only these, so
/// no probe touches a distance.
struct TourLeg {
  double depot = 0.0;
  double pred = 0.0;
  double service = 0.0;
};

std::vector<TourLeg> tour_legs(const TourProblem& p, const Tour& tour) {
  std::vector<TourLeg> legs(tour.size());
  for (std::size_t i = 0; i < tour.size(); ++i) {
    legs[i].depot = p.travel_depot(tour[i]);
    if (i > 0) legs[i].pred = p.travel(tour[i - 1], tour[i]);
    legs[i].service = p.service[tour[i]];
  }
  return legs;
}

/// Greedily cuts the tour whose legs are `legs` into segments of delay
/// <= budget. Writes the tour position where each segment starts into
/// `starts` and returns true; returns false as soon as a single site alone
/// exceeds the budget or the cut needs more than `max_segments` segments.
/// `fitted` gets the largest delay of a segment extension the cut took
/// (-inf if it took none): every budget in [fitted, budget] that no site
/// alone exceeds makes the same cut. Once `starts` has grown, a probe
/// allocates nothing.
bool greedy_cut(const std::vector<TourLeg>& legs, double budget,
                const SegmentEnergyCap& cap, std::size_t max_segments,
                std::vector<std::size_t>& starts, double& fitted) {
  starts.clear();
  fitted = -std::numeric_limits<double>::infinity();
  std::size_t first = 0;  // tour position of the open segment's first site
  double internal = 0.0;  // travel within segment + service
  // Energy bookkeeping (cap only): internal travel / service seconds,
  // tracked separately so joules can be priced per component. The delay
  // accumulator above is left bit-for-bit untouched — with a disabled cap
  // the cut decisions are exactly the delay-only ones.
  double etravel = 0.0;
  double eservice = 0.0;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const double solo = 2.0 * legs[i].depot + legs[i].service;
    if (solo > budget) return false;  // infeasible budget
    if (!starts.empty()) {
      // Segments are consecutive runs of the tour, so the open segment
      // ends at position i - 1 and its leg to i is legs[i].pred.
      const double extended = legs[first].depot + internal + legs[i].pred +
                              legs[i].service + legs[i].depot;
      bool fits = extended <= budget;
      if (fits && cap.enabled()) {
        // A single site over the cap is still admitted as its own segment
        // (the executor's budget machinery handles the overdraw); only
        // *extending* past the cap forces a cut.
        const double joules =
            (legs[first].depot + etravel + legs[i].pred + legs[i].depot) *
                cap.travel_power_w +
            (eservice + legs[i].service) * cap.service_power_w;
        fits = joules <= cap.budget_j;
      }
      if (fits) {
        fitted = std::max(fitted, extended);
        internal += legs[i].pred + legs[i].service;
        etravel += legs[i].pred;
        eservice += legs[i].service;
        continue;
      }
    }
    if (starts.size() == max_segments) return false;
    starts.push_back(i);
    first = i;
    internal = legs[i].service;
    etravel = 0.0;
    eservice = legs[i].service;
  }
  return true;
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
  SplitResult result;
  if (tour.empty()) {
    result.tours.assign(k, Tour{});
    return result;
  }

  const std::vector<TourLeg> legs = tour_legs(problem, tour);
  // Lower bound: the hardest single site. Upper bound: whole tour as one.
  // The upper bound gets a relative nudge so that accumulation-order
  // floating-point noise cannot make the whole-tour budget "infeasible".
  double lo0 = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < tour.size(); ++i) {
    const double solo = 2.0 * legs[i].depot + legs[i].service;
    if (solo > lo0) lo0 = solo;
  }
  double lo = std::max(0.0, lo0);
  double hi = std::max(lo, tour_delay(problem, tour));
  hi += 1e-9 * std::max(1.0, hi);

  // Probes only count: each keeps its segment starts, and the segments
  // are built once, for the chosen cut.
  SegmentEnergyCap use = cap;
  std::vector<std::size_t> best;
  std::vector<std::size_t> probe;
  double best_fitted = 0.0;
  bool fits = greedy_cut(legs, hi, use, k, best, best_fitted);
  if (use.enabled() && !fits) {
    // The energy cap and the fleet size cannot both hold even at the
    // loosest delay budget: drop the cap (best effort — the executor's
    // budget machinery turns any residual overdraw into a recoverable,
    // cause-tagged abort) and redo the feasibility anchor.
    use = SegmentEnergyCap{};
    fits = greedy_cut(legs, hi, use, k, best, best_fitted);
  }
  MCHARGE_ASSERT(fits, "whole-tour budget must be feasible");

  // Binary search the smallest budget whose greedy cut uses <= k segments.
  // Every solo round trip is <= lo <= mid and the energy test does not
  // read the budget, so a mid at or above the cut's `fitted` makes the
  // cut at hi again: that step only moves hi, without a probe.
  std::int64_t probes = 0;
  for (int iter = 0; iter < 64 && hi - lo > 1e-9 * std::max(1.0, hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid >= best_fitted) {
      hi = mid;
      continue;
    }
    ++probes;
    double probe_fitted = 0.0;
    if (greedy_cut(legs, mid, use, k, probe, probe_fitted)) {
      best.swap(probe);
      best_fitted = probe_fitted;
      hi = mid;
    } else {
      lo = mid;
    }
  }
  OBS_COUNT("tsp.split_probes", probes);

  result.tours.reserve(k);
  for (std::size_t s = 0; s < best.size(); ++s) {
    const std::size_t end = s + 1 < best.size() ? best[s + 1] : tour.size();
    result.tours.emplace_back(
        tour.begin() + static_cast<std::ptrdiff_t>(best[s]),
        tour.begin() + static_cast<std::ptrdiff_t>(end));
  }
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
  // One span per stage; tracing never changes a result. No stage builds
  // an m x m distance table: Prim streams rows from the coordinates, the
  // local search and the split read O(m) legs.
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
