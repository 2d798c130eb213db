#include "tsp/tour_problem.h"

#include <algorithm>

#include "util/assert.h"
#include "util/simd.h"

namespace mcharge::tsp {

void TourProblem::ensure_distance_cache() const {
  if (has_distance_cache()) return;
  drop_distance_cache();
  const std::size_t m = sites.size();
  cache_built_ = true;
  cached_m_ = m;
  // Nothing to tabulate for m <= 1: distance() never consults the matrix
  // (the only pair is the zero diagonal) and a lone depot leg is cheaper
  // recomputed than cached. Keeping this a no-op makes repeated
  // ensure/drop cycles on tiny subproblems allocation-free.
  if (m <= 1) return;
  std::vector<double> xs(m), ys(m);
  for (std::size_t a = 0; a < m; ++a) {
    xs[a] = sites[a].x;
    ys[a] = sites[a].y;
  }
  depot_dist_.resize(m);
  simd::distance_row(xs.data(), ys.data(), m, depot.x, depot.y,
                     depot_dist_.data());
  site_dist_.resize(m * m);
  // Row a is filled from the diagonal rightwards with the row kernel (which
  // yields +0.0 on the diagonal), then mirrored into column a. Mirroring is
  // bitwise-safe: dx and -dx square to the same double, so every entry
  // carries exactly the bits geom::distance would produce.
  for (std::size_t a = 0; a < m; ++a) {
    double* row = site_dist_.data() + a * m;
    simd::distance_row(xs.data() + a, ys.data() + a, m - a, xs[a], ys[a],
                       row + a);
    for (std::size_t b = a + 1; b < m; ++b) site_dist_[b * m + a] = row[b];
  }
}

void TourProblem::drop_distance_cache() const {
  site_dist_.clear();
  depot_dist_.clear();
  cache_built_ = false;
  cached_m_ = 0;
}

void TourProblem::check() const {
  MCHARGE_ASSERT(service.size() == sites.size(),
                 "one service time per site required");
  MCHARGE_ASSERT(speed > 0.0, "vehicle speed must be positive");
  for (double s : service) {
    MCHARGE_ASSERT(s >= 0.0, "service times must be non-negative");
  }
}

double tour_travel_time(const TourProblem& problem, const Tour& tour) {
  if (tour.empty()) return 0.0;
  double total = problem.travel_depot(tour.front());
  for (std::size_t i = 0; i + 1 < tour.size(); ++i) {
    total += problem.travel(tour[i], tour[i + 1]);
  }
  total += problem.travel_depot(tour.back());
  return total;
}

double tour_service_time(const TourProblem& problem, const Tour& tour) {
  double total = 0.0;
  for (SiteId v : tour) total += problem.service[v];
  return total;
}

double tour_delay(const TourProblem& problem, const Tour& tour) {
  return tour_travel_time(problem, tour) + tour_service_time(problem, tour);
}

bool is_complete_tour(const TourProblem& problem, const Tour& tour) {
  if (tour.size() != problem.size()) return false;
  std::vector<char> seen(problem.size(), 0);
  for (SiteId v : tour) {
    if (v >= problem.size() || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

}  // namespace mcharge::tsp
