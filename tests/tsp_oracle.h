// Test oracles for the tour substrate.
//
// held_karp_tour / held_karp_travel_time: exact TSP via Held-Karp dynamic
// programming, the reference the tour tests measure construction and
// local search against on small instances. Exponential in the number of
// sites (O(2^m * m^2) time, O(2^m * m) space); capped at m <= 20.
//
// segment_building_split: tsp::split_min_max as it was when every
// bisection probe built its segments. Frozen: the count-only probes of
// tsp::split_min_max must return the same tours and the same max_delay
// bits, with and without an energy cap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "tsp/split.h"
#include "tsp/tour_problem.h"
#include "util/assert.h"

namespace mcharge::tsp::oracle {

/// Largest site count accepted by held_karp_tour (2^m states are
/// materialized).
inline constexpr std::size_t kHeldKarpLimit = 20;

namespace detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Held-Karp table: best[mask][last] = cheapest travel time starting at the
/// depot, visiting exactly the sites in `mask`, ending at site `last`.
struct HeldKarp {
  std::size_t m;
  std::vector<double> best;        // (mask, last) flattened
  std::vector<std::int32_t> prev;  // predecessor site for reconstruction

  double& at(std::uint32_t mask, std::size_t last) {
    return best[static_cast<std::size_t>(mask) * m + last];
  }
  std::int32_t& from(std::uint32_t mask, std::size_t last) {
    return prev[static_cast<std::size_t>(mask) * m + last];
  }
};

inline HeldKarp solve(const TourProblem& p) {
  const std::size_t m = p.size();
  MCHARGE_ASSERT(m <= kHeldKarpLimit, "Held-Karp limited to 20 sites");
  p.ensure_distance_cache();
  HeldKarp hk;
  hk.m = m;
  const std::size_t states = (std::size_t{1} << m) * m;
  hk.best.assign(states, kInf);
  hk.prev.assign(states, -1);
  for (std::size_t v = 0; v < m; ++v) {
    hk.at(1u << v, v) = p.travel_depot(static_cast<SiteId>(v));
  }
  const std::uint32_t full = (1u << m) - 1u;
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    for (std::size_t last = 0; last < m; ++last) {
      if (!(mask & (1u << last))) continue;
      const double cost = hk.at(mask, last);
      if (cost == kInf) continue;
      for (std::size_t next = 0; next < m; ++next) {
        if (mask & (1u << next)) continue;
        const std::uint32_t nmask = mask | (1u << next);
        const double ncost = cost + p.travel(static_cast<SiteId>(last),
                                             static_cast<SiteId>(next));
        if (ncost < hk.at(nmask, next)) {
          hk.at(nmask, next) = ncost;
          hk.from(nmask, next) = static_cast<std::int32_t>(last);
        }
      }
    }
  }
  return hk;
}

}  // namespace detail

/// The optimal closed-tour travel time without reconstructing the tour.
inline double held_karp_travel_time(const TourProblem& problem) {
  const std::size_t m = problem.size();
  if (m == 0) return 0.0;
  detail::HeldKarp hk = detail::solve(problem);
  const std::uint32_t full = (1u << m) - 1u;
  double best = detail::kInf;
  for (std::size_t last = 0; last < m; ++last) {
    best = std::min(best, hk.at(full, last) +
                              problem.travel_depot(static_cast<SiteId>(last)));
  }
  return best;
}

/// The optimal closed tour (minimum travel time; service times are
/// order-invariant and excluded from the optimization). Requires
/// problem.size() <= kHeldKarpLimit (asserted).
inline Tour held_karp_tour(const TourProblem& problem) {
  const std::size_t m = problem.size();
  if (m == 0) return {};
  detail::HeldKarp hk = detail::solve(problem);
  const std::uint32_t full = (1u << m) - 1u;
  double best = detail::kInf;
  std::size_t last = 0;
  for (std::size_t v = 0; v < m; ++v) {
    const double cost =
        hk.at(full, v) + problem.travel_depot(static_cast<SiteId>(v));
    if (cost < best) {
      best = cost;
      last = v;
    }
  }
  Tour tour;
  std::uint32_t mask = full;
  std::int32_t at = static_cast<std::int32_t>(last);
  while (at >= 0) {
    tour.push_back(static_cast<SiteId>(at));
    const std::int32_t prev = hk.from(mask, static_cast<std::size_t>(at));
    mask &= ~(1u << at);
    at = prev;
  }
  std::reverse(tour.begin(), tour.end());
  MCHARGE_ASSERT(is_complete_tour(problem, tour),
                 "Held-Karp reconstruction failed");
  return tour;
}

/// Legs of one tour position, as the frozen split computed them.
struct FrozenLeg {
  double depot = 0.0;
  double pred = 0.0;
  double service = 0.0;
};

struct FrozenCut {
  bool ok = false;
  std::vector<Tour> segments;
};

/// The frozen greedy cut: builds every segment of every probe.
inline FrozenCut frozen_greedy_cut(const Tour& tour,
                                   const std::vector<FrozenLeg>& legs,
                                   double budget,
                                   const SegmentEnergyCap& cap) {
  FrozenCut result;
  Tour current;
  std::size_t first = 0;
  double internal = 0.0;
  double etravel = 0.0;
  double eservice = 0.0;
  for (std::size_t i = 0; i < tour.size(); ++i) {
    const SiteId v = tour[i];
    const double solo = 2.0 * legs[i].depot + legs[i].service;
    if (solo > budget) return result;
    if (current.empty()) {
      current.push_back(v);
      first = i;
      internal = legs[i].service;
      etravel = 0.0;
      eservice = legs[i].service;
      continue;
    }
    const double extended = legs[first].depot + internal + legs[i].pred +
                            legs[i].service + legs[i].depot;
    bool fits = extended <= budget;
    if (fits && cap.enabled()) {
      const double joules =
          (legs[first].depot + etravel + legs[i].pred + legs[i].depot) *
              cap.travel_power_w +
          (eservice + legs[i].service) * cap.service_power_w;
      fits = joules <= cap.budget_j;
    }
    if (fits) {
      internal += legs[i].pred + legs[i].service;
      etravel += legs[i].pred;
      eservice += legs[i].service;
      current.push_back(v);
    } else {
      result.segments.push_back(std::move(current));
      current = {v};
      first = i;
      internal = legs[i].service;
      etravel = 0.0;
      eservice = legs[i].service;
    }
  }
  if (!current.empty()) result.segments.push_back(std::move(current));
  result.ok = true;
  return result;
}

/// The frozen split_min_max (see the header comment).
inline SplitResult segment_building_split(const TourProblem& problem,
                                          const Tour& tour, std::size_t k,
                                          const SegmentEnergyCap& cap = {}) {
  SplitResult result;
  if (tour.empty()) {
    result.tours.assign(k, Tour{});
    return result;
  }
  std::vector<FrozenLeg> legs(tour.size());
  for (std::size_t i = 0; i < tour.size(); ++i) {
    legs[i].depot = problem.travel_depot(tour[i]);
    if (i > 0) legs[i].pred = problem.travel(tour[i - 1], tour[i]);
    legs[i].service = problem.service[tour[i]];
  }
  double lo0 = -detail::kInf;
  for (std::size_t i = 0; i < tour.size(); ++i) {
    const double solo = 2.0 * legs[i].depot + legs[i].service;
    if (solo > lo0) lo0 = solo;
  }
  double lo = std::max(0.0, lo0);
  double hi = std::max(lo, tour_delay(problem, tour));
  hi += 1e-9 * std::max(1.0, hi);

  SegmentEnergyCap use = cap;
  FrozenCut best = frozen_greedy_cut(tour, legs, hi, use);
  if (use.enabled() && best.ok && best.segments.size() > k) {
    use = SegmentEnergyCap{};
    best = frozen_greedy_cut(tour, legs, hi, use);
  }
  MCHARGE_ASSERT(best.ok && best.segments.size() <= std::max<std::size_t>(k, 1),
                 "whole-tour budget must be feasible");
  for (int iter = 0; iter < 64 && hi - lo > 1e-9 * std::max(1.0, hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    FrozenCut cut = frozen_greedy_cut(tour, legs, mid, use);
    if (cut.ok && cut.segments.size() <= k) {
      best = std::move(cut);
      hi = mid;
    } else {
      lo = mid;
    }
  }
  result.tours = std::move(best.segments);
  result.tours.resize(k);
  for (const Tour& s : result.tours) {
    result.max_delay = std::max(result.max_delay, tour_delay(problem, s));
  }
  return result;
}

}  // namespace mcharge::tsp::oracle
