// The node-weighted, depot-rooted closed-tour problem underlying both the
// K-optimal closed tour substrate (Liang et al. [14]) and the K-minMax
// baseline.
//
// A TourProblem has m "sites" (sojourn locations), each with a service time
// (the charging duration tau(v)), plus a depot. A tour is an ordering of a
// subset of site indices; its delay is depot->first travel, inter-site
// travel, service at every site, and last->depot travel, all divided by the
// vehicle speed where applicable (Eq. (5) of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/point.h"

namespace mcharge::tsp {

using SiteId = std::uint32_t;
using Tour = std::vector<SiteId>;  // visiting order; depot implicit at ends

struct TourProblem {
  std::vector<geom::Point> sites;   ///< sojourn locations (depot excluded)
  std::vector<double> service;      ///< service (charging) seconds per site
  geom::Point depot{0.0, 0.0};
  double speed = 1.0;               ///< vehicle speed, m/s

  std::size_t size() const { return sites.size(); }

  /// Euclidean distance between two sites, read from the distance cache
  /// when one is built (bitwise-identical either way).
  double distance(SiteId a, SiteId b) const {
    if (!site_dist_.empty()) return site_dist_[a * sites.size() + b];
    return geom::distance(sites[a], sites[b]);
  }
  /// Euclidean distance between the depot and a site.
  double distance_depot(SiteId a) const {
    if (!depot_dist_.empty()) return depot_dist_[a];
    return geom::distance(depot, sites[a]);
  }

  /// Travel time between two sites.
  double travel(SiteId a, SiteId b) const { return distance(a, b) / speed; }
  /// Travel time between the depot and a site.
  double travel_depot(SiteId a) const { return distance_depot(a) / speed; }

  /// Builds the O(m^2) symmetric site-distance matrix and the depot
  /// distance vector if absent (or stale in size after sites changed).
  /// The matrix is filled row-wise from an SoA copy of `sites` with the
  /// simd::distance_row kernel; every entry is bitwise identical to
  /// geom::distance. For m <= 1 the build is a cheap no-op (no
  /// allocation): there are no site pairs to cache and distance queries
  /// fall through to on-the-fly geometry.
  /// Only the exact solver (tsp/exact.h, Held-Karp, m <= 20) calls this
  /// itself. The tour substrate never does: Christofides streams Prim
  /// rows from the coordinates, 2-opt / Or-opt keep a position mirror and
  /// split_min_max reads O(m) legs. A caller may still build the cache
  /// first; every travel() answer keeps the same bits, so no tour
  /// changes.
  /// Mutating `sites` or `depot` IN PLACE (same size) is invisible to the
  /// staleness check — call drop_distance_cache() first. Not safe to
  /// call concurrently on a shared instance; build before handing the
  /// problem to other threads.
  void ensure_distance_cache() const;
  /// Discards the cache; travel queries fall back to on-the-fly geometry.
  void drop_distance_cache() const;
  /// True once ensure_distance_cache() ran for the current site count —
  /// including for m == 0 / m == 1, where the build allocates nothing.
  bool has_distance_cache() const {
    return cache_built_ && cached_m_ == sites.size();
  }

  /// Validates invariants (matching vector sizes, positive speed,
  /// non-negative service). Aborts on violation.
  void check() const;

 private:
  mutable std::vector<double> site_dist_;   ///< m*m, row-major, symmetric
  mutable std::vector<double> depot_dist_;  ///< m
  mutable bool cache_built_ = false;
  mutable std::size_t cached_m_ = 0;        ///< site count at build time
};

/// Total delay of a closed tour: travel (incl. both depot legs) + service.
/// An empty tour has zero delay.
double tour_delay(const TourProblem& problem, const Tour& tour);

/// Travel-only component of the closed-tour delay.
double tour_travel_time(const TourProblem& problem, const Tour& tour);

/// Service-only component.
double tour_service_time(const TourProblem& problem, const Tour& tour);

/// True iff `tour` is a permutation of {0..m-1}.
bool is_complete_tour(const TourProblem& problem, const Tour& tour);

}  // namespace mcharge::tsp
