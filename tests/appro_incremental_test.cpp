// Differential tests for the planner hot path.
//
// Two independent reference implementations are frozen in this file:
//  * reference::appro_plan — Appro with the original insertion phase
//    (whole-tour finish recomputation after every insertion, index
//    rebuild of the mutated tour, travel times read from the problem);
//  * reference::two_opt / or_opt / improve_tour — the pre-cache restart
//    loops, copied verbatim from the original src/tsp/improve.cpp.
//
// The claim under test is BITWISE identity, the repo-wide determinism
// contract: the planner's suffix-only finish recomputation, the
// exact-replay local-search caches, and every SIMD-backend setting must
// reproduce the reference plans and tours bit for bit — same tours, same
// stats, same gains — across problem sizes and seeds. memcmp on a flat serialization keeps
// the comparison honest (no epsilon anywhere).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/appro.h"
#include "core/overlap_graph.h"
#include "graph/mis.h"
#include "model/charging_problem.h"
#include "tsp/construct.h"
#include "tsp/improve.h"
#include "tsp/split.h"
#include "tsp/tour_problem.h"
#include "util/rng.h"
#include "util/simd.h"

#include "simd_backends.h"

namespace mcharge {
namespace {

/// One fresh charging round, the bench generator's shape (uniform field,
/// deficits within the paper's battery range).
model::ChargingProblem random_round(std::size_t n, std::size_t k,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(3456.0, 5400.0));
  }
  return model::ChargingProblem(std::move(pts), std::move(deficits),
                                {50.0, 50.0}, 2.7, 1.0, k);
}

/// Flat, unambiguous byte image of a plan (every field length-prefixed),
/// so memcmp equality == structural equality.
std::vector<unsigned char> serialize(const sched::ChargingPlan& plan) {
  std::vector<unsigned char> out;
  const auto put = [&out](const void* p, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(p);
    out.insert(out.end(), b, b + bytes);
  };
  const auto put_u64 = [&put](std::uint64_t v) { put(&v, sizeof v); };
  put_u64(static_cast<std::uint64_t>(plan.mode));
  put_u64(plan.tours.size());
  for (const auto& tour : plan.tours) {
    put_u64(tour.size());
    put(tour.data(), tour.size() * sizeof(std::uint32_t));
  }
  put_u64(plan.starts.size());
  for (const geom::Point& p : plan.starts) {
    put(&p.x, sizeof p.x);
    put(&p.y, sizeof p.y);
  }
  return out;
}

bool bytes_equal(const std::vector<unsigned char>& a,
                 const std::vector<unsigned char>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

void expect_stats_equal(const core::ApproStats& a, const core::ApproStats& b) {
  EXPECT_EQ(a.v_s, b.v_s);
  EXPECT_EQ(a.s_i, b.s_i);
  EXPECT_EQ(a.v_h, b.v_h);
  EXPECT_EQ(a.h_max_degree, b.h_max_degree);
  EXPECT_EQ(a.inserted_case_one, b.inserted_case_one);
  EXPECT_EQ(a.inserted_case_two, b.inserted_case_two);
  EXPECT_EQ(a.dropped_covered, b.dropped_covered);
}

// ---------------------------------------------------------------------------
// Reference local search: the original restart loops of src/tsp/improve.cpp
// (no exact-replay caches, no convergence skips), frozen here so the cached
// production code has an in-tree witness of the semantics it must replay.

namespace reference {

double leg(const tsp::TourProblem& p, const tsp::Tour& t, std::ptrdiff_t i,
           std::ptrdiff_t j) {
  const bool i_depot = i < 0 || i >= static_cast<std::ptrdiff_t>(t.size());
  const bool j_depot = j < 0 || j >= static_cast<std::ptrdiff_t>(t.size());
  if (i_depot && j_depot) return 0.0;
  if (i_depot) return p.travel_depot(t[static_cast<std::size_t>(j)]);
  if (j_depot) return p.travel_depot(t[static_cast<std::size_t>(i)]);
  return p.travel(t[static_cast<std::size_t>(i)],
                  t[static_cast<std::size_t>(j)]);
}

void mirror_tour(const tsp::TourProblem& problem, const tsp::Tour& tour,
                 std::vector<double>& px, std::vector<double>& py) {
  const std::size_t m = tour.size();
  px.resize(m + 1);
  py.resize(m + 1);
  for (std::size_t p = 0; p < m; ++p) {
    px[p] = problem.sites[tour[p]].x;
    py[p] = problem.sites[tour[p]].y;
  }
  px[m] = problem.depot.x;
  py[m] = problem.depot.y;
}

double leg_time(const std::vector<double>& px, const std::vector<double>& py,
                double speed, std::size_t k) {
  const double dx = px[k] - px[k + 1];
  const double dy = py[k] - py[k + 1];
  return std::sqrt(dx * dx + dy * dy) / speed;
}

void fill_leg_times(const std::vector<double>& px,
                    const std::vector<double>& py, double speed,
                    std::vector<double>& tc) {
  const std::size_t m = px.size() - 1;
  tc.resize(m);
  for (std::size_t k = 0; k < m; ++k) tc[k] = leg_time(px, py, speed, k);
}

double two_opt(const tsp::TourProblem& problem, tsp::Tour& tour,
               const tsp::ImproveOptions& options) {
  const std::size_t m = tour.size();
  if (m < 2) return 0.0;
  std::vector<double> px, py, tc;
  mirror_tour(problem, tour, px, py);
  fill_leg_times(px, py, problem.speed, tc);

  double saved = 0.0;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved = false;
    for (std::size_t i = 0; i + 1 < m; ++i) {
      const auto ip = static_cast<std::ptrdiff_t>(i);
      const double ax = i == 0 ? problem.depot.x : px[i - 1];
      const double ay = i == 0 ? problem.depot.y : py[i - 1];
      double bx = px[i];
      double by = py[i];
      double base = leg(problem, tour, ip - 1, ip);
      const std::size_t j_end = i == 0 ? m - 1 : m;
      std::size_t j = i + 1;
      while (j < j_end) {
        const std::size_t hit = simd::two_opt_scan(
            px.data(), py.data(), tc.data(), j, j_end, ax, ay, bx, by,
            problem.speed, base, options.min_gain);
        if (hit == simd::kNpos) break;
        const auto jp = static_cast<std::ptrdiff_t>(hit);
        const double before =
            leg(problem, tour, ip - 1, ip) + leg(problem, tour, jp, jp + 1);
        const double after =
            leg(problem, tour, ip - 1, jp) + leg(problem, tour, ip, jp + 1);
        std::reverse(tour.begin() + ip, tour.begin() + jp + 1);
        std::reverse(px.begin() + ip, px.begin() + jp + 1);
        std::reverse(py.begin() + ip, py.begin() + jp + 1);
        std::reverse(tc.begin() + ip, tc.begin() + jp);
        tc[hit] = leg_time(px, py, problem.speed, hit);
        if (i > 0) tc[i - 1] = leg_time(px, py, problem.speed, i - 1);
        saved += before - after;
        improved = true;
        bx = px[i];
        by = py[i];
        base = leg(problem, tour, ip - 1, ip);
        j = hit + 1;
      }
    }
    if (!improved) break;
  }
  return saved;
}

// Where the applied Or-opt moves touched the tour ends: the depot-front
// slot (k = -1), the end slot (k = m-1), and segments taken from either
// end. The oracle corpora assert each is exercised.
struct OrOptTally {
  std::size_t moves = 0;
  std::size_t depot_slot = 0;
  std::size_t end_slot = 0;
  std::size_t front_segment = 0;
  std::size_t back_segment = 0;
};

double or_opt(const tsp::TourProblem& problem, tsp::Tour& tour,
              const tsp::ImproveOptions& options,
              OrOptTally* tally = nullptr) {
  const auto m = static_cast<std::ptrdiff_t>(tour.size());
  if (m < 3) return 0.0;
  std::vector<double> px, py, tc;
  double saved = 0.0;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved = false;
    mirror_tour(problem, tour, px, py);
    fill_leg_times(px, py, problem.speed, tc);
    for (std::ptrdiff_t len = 1; len <= 3 && len < m; ++len) {
      for (std::ptrdiff_t i = 0; i + len <= m && !improved; ++i) {
        const double removal_gain = leg(problem, tour, i - 1, i) +
                                    leg(problem, tour, i + len - 1, i + len) -
                                    leg(problem, tour, i - 1, i + len);
        if (removal_gain <= options.min_gain) continue;
        const double threshold = removal_gain - options.min_gain;
        const double ix = px[static_cast<std::size_t>(i)];
        const double iy = py[static_cast<std::size_t>(i)];
        const double ex = px[static_cast<std::size_t>(i + len - 1)];
        const double ey = py[static_cast<std::size_t>(i + len - 1)];
        std::ptrdiff_t k = -2;  // -2: no improving position found
        if (i > 0) {
          const double depot_cost = leg(problem, tour, -1, i) +
                                    leg(problem, tour, i + len - 1, 0) -
                                    leg(problem, tour, -1, 0);
          if (depot_cost < threshold) k = -1;
        }
        if (k == -2 && i >= 2) {
          const std::size_t hit = simd::or_opt_scan(
              px.data(), py.data(), tc.data(), 0,
              static_cast<std::size_t>(i - 1), ix, iy, ex, ey, problem.speed,
              threshold);
          if (hit != simd::kNpos) k = static_cast<std::ptrdiff_t>(hit);
        }
        if (k == -2) {
          const std::size_t hit = simd::or_opt_scan(
              px.data(), py.data(), tc.data(),
              static_cast<std::size_t>(i + len), static_cast<std::size_t>(m),
              ix, iy, ex, ey, problem.speed, threshold);
          if (hit != simd::kNpos) k = static_cast<std::ptrdiff_t>(hit);
        }
        if (k == -2) continue;
        if (tally != nullptr) {
          ++tally->moves;
          if (k == -1) ++tally->depot_slot;
          if (k == m - 1) ++tally->end_slot;
          if (i == 0) ++tally->front_segment;
          if (i + len == m) ++tally->back_segment;
        }
        const double insert_cost = leg(problem, tour, k, i) +
                                   leg(problem, tour, i + len - 1, k + 1) -
                                   leg(problem, tour, k, k + 1);
        tsp::Tour segment(tour.begin() + i, tour.begin() + i + len);
        tour.erase(tour.begin() + i, tour.begin() + i + len);
        const std::ptrdiff_t dest = k < i ? k + 1 : k + 1 - len;
        tour.insert(tour.begin() + dest, segment.begin(), segment.end());
        saved += removal_gain - insert_cost;
        improved = true;
      }
      if (improved) break;
    }
    if (!improved) break;
  }
  return saved;
}

double improve_tour(const tsp::TourProblem& problem, tsp::Tour& tour,
                    const tsp::ImproveOptions& options,
                    OrOptTally* tally = nullptr) {
  double saved = 0.0;
  for (std::size_t round = 0; round < options.max_passes; ++round) {
    double round_gain = 0.0;
    // Qualified: the unqualified names would also find tsp:: via ADL.
    if (options.use_two_opt) {
      round_gain += reference::two_opt(problem, tour, options);
    }
    if (options.use_or_opt) {
      round_gain += reference::or_opt(problem, tour, options, tally);
    }
    saved += round_gain;
    if (round_gain <= options.min_gain) break;
  }
  return saved;
}

// ---------------------------------------------------------------------------
// Reference Appro: steps 1-5 as the planner runs them, then step 6
// through the original insertion loop — every round rescans f_N over all
// pending nodes, recomputes the whole mutated tour's finish times and
// re-indexes it, with travel times read straight from the problem.

struct RefTour {
  std::vector<std::uint32_t> seq;
  std::vector<double> tau_prime;
  std::vector<double> finish;
};

sched::ChargingPlan appro_plan(const model::ChargingProblem& problem,
                               core::ApproStats* stats) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = problem.size();
  const std::size_t k = problem.num_chargers();
  sched::ChargingPlan plan;
  plan.mode = sched::ChargeMode::kMultiNode;
  plan.tours.assign(k, {});
  *stats = core::ApproStats{};
  if (n == 0) return plan;

  // Steps 1-5.
  const graph::Graph gc = core::charging_graph(problem);
  const std::vector<graph::Vertex> s_i = graph::maximal_independent_set(gc);
  const graph::Graph h = core::overlap_graph(problem, s_i);
  const std::vector<graph::Vertex> vh_local =
      graph::maximal_independent_set(h);
  tsp::TourProblem tour_problem;
  tour_problem.depot = problem.depot();
  tour_problem.speed = problem.speed();
  for (graph::Vertex i : vh_local) {
    tour_problem.sites.push_back(problem.position(s_i[i]));
    tour_problem.service.push_back(problem.tau(s_i[i]));
  }
  const tsp::SplitResult split = tsp::min_max_k_tours(tour_problem, k);

  // Step 6.
  const auto recompute_finish = [&](RefTour& tour) {
    double clock = 0.0;
    for (std::size_t l = 0; l < tour.seq.size(); ++l) {
      clock += l == 0 ? problem.travel_depot(tour.seq[l])
                      : problem.travel(tour.seq[l - 1], tour.seq[l]);
      clock += tour.tau_prime[l];
      tour.finish[l] = clock;
    }
  };
  std::vector<RefTour> tours(k);
  std::vector<char> covered(n, 0);
  for (std::size_t t = 0; t < k; ++t) {
    for (tsp::SiteId site : split.tours[t]) {
      const std::uint32_t sensor = s_i[vh_local[site]];
      tours[t].seq.push_back(sensor);
      tours[t].tau_prime.push_back(problem.tau(sensor));
      for (std::uint32_t u : problem.coverage(sensor)) covered[u] = 1;
    }
    tours[t].finish.resize(tours[t].seq.size());
    recompute_finish(tours[t]);
  }
  std::vector<std::int32_t> tour_of(n, -1);
  std::vector<std::size_t> pos_of(n, 0);
  const auto index_tour = [&](std::size_t t) {
    for (std::size_t l = 0; l < tours[t].seq.size(); ++l) {
      tour_of[tours[t].seq[l]] = static_cast<std::int32_t>(t);
      pos_of[tours[t].seq[l]] = l;
    }
  };
  for (std::size_t t = 0; t < k; ++t) index_tour(t);
  stats->v_s = n;
  stats->s_i = s_i.size();
  stats->v_h = vh_local.size();
  stats->h_max_degree = h.max_degree();

  std::vector<char> in_vh(s_i.size(), 0);
  for (graph::Vertex i : vh_local) in_vh[i] = 1;
  std::vector<std::uint32_t> pending;  // indices into s_i
  for (std::uint32_t i = 0; i < s_i.size(); ++i) {
    if (!in_vh[i]) pending.push_back(i);
  }
  while (!pending.empty()) {
    // Smallest latest-neighbor finish time f_N (Algorithm 1, line 9).
    std::size_t pick = 0;
    double pick_fn = kInf;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      double fn = -kInf;
      for (graph::Vertex nb : h.neighbors(pending[i])) {
        const std::uint32_t sensor = s_i[nb];
        if (tour_of[sensor] >= 0) {
          fn = std::max(fn, tours[static_cast<std::size_t>(tour_of[sensor])]
                                .finish[pos_of[sensor]]);
        }
      }
      if (fn < pick_fn) {
        pick_fn = fn;
        pick = i;
      }
    }
    const std::uint32_t hi = pending[pick];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    const std::uint32_t u = s_i[hi];

    // Line 10: drop u when everything it would charge is covered.
    bool fully_covered = true;
    double tau_prime_u = 0.0;
    for (std::uint32_t w : problem.coverage(u)) {
      if (!covered[w]) {
        fully_covered = false;
        tau_prime_u = std::max(tau_prime_u, problem.charge_seconds(w));
      }
    }
    if (fully_covered) {
      ++stats->dropped_covered;
      continue;
    }

    // Placement after the placed H-neighbor with the largest finish time.
    std::int32_t best_tour = -1;
    std::size_t best_pos = 0;
    double best_finish = -kInf;
    std::vector<std::int32_t> seen_tours;
    for (graph::Vertex nb : h.neighbors(hi)) {
      const std::uint32_t sensor = s_i[nb];
      const std::int32_t t = tour_of[sensor];
      if (t < 0) continue;
      if (std::find(seen_tours.begin(), seen_tours.end(), t) ==
          seen_tours.end()) {
        seen_tours.push_back(t);
      }
      const std::size_t pos = pos_of[sensor];
      const double finish =
          tours[static_cast<std::size_t>(t)].finish[pos];
      if (finish > best_finish) {
        best_finish = finish;
        best_tour = t;
        best_pos = pos;
      }
    }
    if (seen_tours.size() <= 1) {
      ++stats->inserted_case_one;
    } else {
      ++stats->inserted_case_two;
    }
    RefTour& tour = tours[static_cast<std::size_t>(best_tour)];
    const auto at = static_cast<std::ptrdiff_t>(best_pos + 1);
    tour.seq.insert(tour.seq.begin() + at, u);
    tour.tau_prime.insert(tour.tau_prime.begin() + at, tau_prime_u);
    tour.finish.insert(tour.finish.begin() + at, 0.0);
    recompute_finish(tour);
    index_tour(static_cast<std::size_t>(best_tour));
    for (std::uint32_t w : problem.coverage(u)) covered[w] = 1;
  }
  for (std::size_t t = 0; t < k; ++t) plan.tours[t] = std::move(tours[t].seq);
  return plan;
}

}  // namespace reference

tsp::TourProblem random_tour_problem(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  tsp::TourProblem problem;
  for (std::size_t i = 0; i < m; ++i) {
    problem.sites.push_back({rng.uniform(0.0, 100.0),
                             rng.uniform(0.0, 100.0)});
    problem.service.push_back(rng.uniform(100.0, 4000.0));
  }
  problem.depot = {50.0, 50.0};
  problem.speed = 1.0;
  return problem;
}

tsp::Tour identity_tour(std::size_t m) {
  tsp::Tour tour(m);
  for (std::size_t i = 0; i < m; ++i) tour[i] = static_cast<tsp::SiteId>(i);
  return tour;
}

const std::vector<std::size_t> kTourSizes = {0, 1, 2, 3, 4, 5, 8,
                                             13, 30, 75, 150, 350};

// ---------------------------------------------------------------------------

TEST(ImproveCache, TwoOptMatchesReferenceRestartLoop) {
  for (std::size_t m : kTourSizes) {
    const tsp::TourProblem problem = random_tour_problem(m, 1000 + m);
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      tsp::Tour expected = identity_tour(m);
      const double ref_gain = reference::two_opt(problem, expected, {});
      tsp::Tour actual = identity_tour(m);
      const double gain = tsp::two_opt(problem, actual, {});
      EXPECT_EQ(expected, actual) << "m=" << m
                                  << " backend=" << static_cast<int>(b);
      EXPECT_EQ(ref_gain, gain) << "m=" << m;
    }
  }
}

TEST(ImproveCache, OrOptMatchesReferenceRestartLoop) {
  for (std::size_t m : kTourSizes) {
    const tsp::TourProblem problem = random_tour_problem(m, 2000 + m);
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      tsp::Tour expected = identity_tour(m);
      const double ref_gain = reference::or_opt(problem, expected, {});
      tsp::Tour actual = identity_tour(m);
      const double gain = tsp::or_opt(problem, actual, {});
      EXPECT_EQ(expected, actual) << "m=" << m
                                  << " backend=" << static_cast<int>(b);
      EXPECT_EQ(ref_gain, gain) << "m=" << m;
    }
  }
}

TEST(ImproveCache, ImproveTourMatchesReferenceAlternation) {
  for (std::size_t m : kTourSizes) {
    const tsp::TourProblem problem = random_tour_problem(m, 3000 + m);
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      tsp::Tour expected = identity_tour(m);
      const double ref_gain = reference::improve_tour(problem, expected, {});
      tsp::Tour actual = identity_tour(m);
      const double gain = tsp::improve_tour(problem, actual, {});
      EXPECT_EQ(expected, actual) << "m=" << m
                                  << " backend=" << static_cast<int>(b);
      EXPECT_EQ(ref_gain, gain) << "m=" << m;
    }
  }
}

// The move/pass budget is part of the observable semantics: the cached
// or_opt counts applied moves where the reference counts restart passes
// (one move each), and the cached two_opt counts full sweeps — both must
// truncate at exactly the same tour.
TEST(ImproveCache, TruncatedBudgetsMatchReference) {
  for (std::size_t max_passes : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{7}}) {
    tsp::ImproveOptions options;
    options.max_passes = max_passes;
    for (std::size_t m : {std::size_t{30}, std::size_t{150}}) {
      const tsp::TourProblem problem = random_tour_problem(m, 4000 + m);
      {
        tsp::Tour expected = identity_tour(m);
        const double ref_gain = reference::two_opt(problem, expected, options);
        tsp::Tour actual = identity_tour(m);
        const double gain = tsp::two_opt(problem, actual, options);
        EXPECT_EQ(expected, actual) << "two_opt m=" << m
                                    << " passes=" << max_passes;
        EXPECT_EQ(ref_gain, gain);
      }
      {
        tsp::Tour expected = identity_tour(m);
        const double ref_gain = reference::or_opt(problem, expected, options);
        tsp::Tour actual = identity_tour(m);
        const double gain = tsp::or_opt(problem, actual, options);
        EXPECT_EQ(expected, actual) << "or_opt m=" << m
                                    << " passes=" << max_passes;
        EXPECT_EQ(ref_gain, gain);
      }
    }
  }
}

// Partially-disabled operators exercise the improve_tour skip logic's
// edge cases (or_clean must never suppress a two_opt-only round).
TEST(ImproveCache, ImproveTourOperatorSubsetsMatchReference) {
  for (bool use_two : {true, false}) {
    for (bool use_or : {true, false}) {
      tsp::ImproveOptions options;
      options.use_two_opt = use_two;
      options.use_or_opt = use_or;
      for (std::size_t m : {std::size_t{75}, std::size_t{150}}) {
        const tsp::TourProblem problem = random_tour_problem(m, 5000 + m);
        tsp::Tour expected = identity_tour(m);
        const double ref_gain =
            reference::improve_tour(problem, expected, options);
        tsp::Tour actual = identity_tour(m);
        const double gain = tsp::improve_tour(problem, actual, options);
        EXPECT_EQ(expected, actual)
            << "m=" << m << " two=" << use_two << " or=" << use_or;
        EXPECT_EQ(ref_gain, gain);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle corpora: layouts that stress the adjacency-keyed Or-opt facts and
// the squared-distance prefilter (exact ties, zero-length legs, sites on
// the depot), from both random and Christofides start tours. A
// Christofides start leaves most facts clean and relocates segments far,
// so the cached walk replays long runs of skipped candidates.

enum class Layout { kUniform, kClustered, kDuplicates, kCollinear, kOnDepot };

constexpr Layout kLayouts[] = {Layout::kUniform, Layout::kClustered,
                               Layout::kDuplicates, Layout::kCollinear,
                               Layout::kOnDepot};

const char* layout_name(Layout layout) {
  switch (layout) {
    case Layout::kUniform: return "uniform";
    case Layout::kClustered: return "clustered";
    case Layout::kDuplicates: return "duplicates";
    case Layout::kCollinear: return "collinear";
    case Layout::kOnDepot: return "on-depot";
  }
  return "?";
}

tsp::TourProblem layout_problem(Layout layout, std::size_t m,
                                std::uint64_t seed) {
  Rng rng(seed);
  tsp::TourProblem problem;
  problem.depot = {50.0, 50.0};
  problem.speed = 2.7;
  std::vector<geom::Point> anchors;  // cluster centres / duplicate spots
  const std::size_t num_anchors = layout == Layout::kClustered ? 5 : 9;
  for (std::size_t c = 0; c < num_anchors; ++c) {
    anchors.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  for (std::size_t i = 0; i < m; ++i) {
    geom::Point p{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    switch (layout) {
      case Layout::kUniform:
        break;
      case Layout::kClustered: {
        const geom::Point& c = anchors[rng.below(anchors.size())];
        p = {c.x + rng.uniform(-4.0, 4.0), c.y + rng.uniform(-4.0, 4.0)};
        break;
      }
      case Layout::kDuplicates:
        p = anchors[rng.below(anchors.size())];
        break;
      case Layout::kCollinear:
        // Integer abscissae on the depot's row: exact collinearity, many
        // equal leg lengths and zero-gain moves.
        p = {static_cast<double>(rng.below(101)), problem.depot.y};
        break;
      case Layout::kOnDepot:
        if (rng.below(4) == 0) p = problem.depot;
        break;
    }
    problem.sites.push_back(p);
    problem.service.push_back(rng.uniform(100.0, 4000.0));
  }
  return problem;
}

enum class Start { kIdentity, kChristofides };

tsp::Tour start_tour(const tsp::TourProblem& problem, Start start) {
  if (start == Start::kIdentity) return identity_tour(problem.size());
  return tsp::christofides_tour(problem);
}

// One corpus case: two_opt, or_opt and improve_tour against the frozen
// restart loops on every supported backend, tallying the reference's
// Or-opt moves (the production walk applies the same sequence).
void expect_corpus_case(const tsp::TourProblem& problem, Start start,
                        const tsp::ImproveOptions& options,
                        reference::OrOptTally& tally,
                        const std::string& label) {
  problem.ensure_distance_cache();
  const tsp::Tour initial = start_tour(problem, start);
  for (simd::Backend b : supported_backends()) {
    BackendGuard guard(b);
    SCOPED_TRACE(label + " backend=" + simd::backend_name(b));
    {
      tsp::Tour expected = initial;
      const double ref_gain = reference::two_opt(problem, expected, options);
      tsp::Tour actual = initial;
      const double gain = tsp::two_opt(problem, actual, options);
      EXPECT_EQ(expected, actual) << "two_opt";
      EXPECT_EQ(ref_gain, gain) << "two_opt";
    }
    {
      tsp::Tour expected = initial;
      const double ref_gain =
          reference::or_opt(problem, expected, options, &tally);
      tsp::Tour actual = initial;
      const double gain = tsp::or_opt(problem, actual, options);
      EXPECT_EQ(expected, actual) << "or_opt";
      EXPECT_EQ(ref_gain, gain) << "or_opt";
    }
    {
      tsp::Tour expected = initial;
      const double ref_gain =
          reference::improve_tour(problem, expected, options, &tally);
      tsp::Tour actual = initial;
      const double gain = tsp::improve_tour(problem, actual, options);
      EXPECT_EQ(expected, actual) << "improve_tour";
      EXPECT_EQ(ref_gain, gain) << "improve_tour";
    }
  }
}

void expect_tour_ends_exercised(const reference::OrOptTally& tally) {
  EXPECT_GT(tally.moves, 0u);
  EXPECT_GT(tally.depot_slot, 0u) << "no relocation into slot k = -1";
  EXPECT_GT(tally.end_slot, 0u) << "no relocation into slot k = m-1";
  EXPECT_GT(tally.front_segment, 0u) << "no segment taken from the front";
  EXPECT_GT(tally.back_segment, 0u) << "no segment taken from the back";
}

// Every size 3..59 with many seeds, then two larger sizes. A stale fact
// only shows when the candidate it hides has become improving and the
// walk reaches it first, which is rare per move: a dense sweep over small
// tours is what catches an off-by-one in the invalidation ranges.
TEST(ImproveCache, LayoutCorpusMatchesReference) {
  std::vector<std::size_t> sizes;
  for (std::size_t m = 3; m < 60; ++m) sizes.push_back(m);
  sizes.push_back(75);
  sizes.push_back(150);
  reference::OrOptTally tally;
  for (Layout layout : kLayouts) {
    for (std::size_t m : sizes) {
      const std::uint64_t seeds = m < 60 ? 20 : 3;
      for (std::uint64_t seed = 0; seed < seeds; ++seed) {
        const auto layout_id = static_cast<std::uint64_t>(layout);
        const tsp::TourProblem problem = layout_problem(
            layout, m, 6000 + 1000 * seed + 100 * layout_id + m);
        for (Start start : {Start::kIdentity, Start::kChristofides}) {
          expect_corpus_case(
              problem, start, {}, tally,
              std::string(layout_name(layout)) + " m=" + std::to_string(m) +
                  " seed=" + std::to_string(seed) +
                  (start == Start::kIdentity ? " identity" : " christofides"));
        }
      }
    }
  }
  expect_tour_ends_exercised(tally);
}

// Paper-scale instances from Christofides starts, as min_max_k_tours runs
// them: K-minMax plans ~500 requesting sensors a round on the daily
// workload and the fig. 3 sweep reaches n = 1200.
TEST(ImproveCache, ChristofidesStartsAtScaleMatchReference) {
  reference::OrOptTally tally;
  for (std::size_t m : {std::size_t{505}, std::size_t{1200}}) {
    for (Layout layout : {Layout::kUniform, Layout::kClustered}) {
      const tsp::TourProblem problem = layout_problem(layout, m, 7000 + m);
      expect_corpus_case(problem, Start::kChristofides, {}, tally,
                         std::string(layout_name(layout)) +
                             " m=" + std::to_string(m));
    }
  }
  EXPECT_GT(tally.moves, 0u);
}

TEST(ImproveCache, TruncatedBudgetsAtScaleMatchReference) {
  reference::OrOptTally tally;
  const tsp::TourProblem problem = layout_problem(Layout::kOnDepot, 505, 8505);
  for (std::size_t max_passes : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{7},
                                 std::size_t{40}}) {
    tsp::ImproveOptions options;
    options.max_passes = max_passes;
    for (Start start : {Start::kIdentity, Start::kChristofides}) {
      expect_corpus_case(
          problem, start, options, tally,
          "passes=" + std::to_string(max_passes) +
              (start == Start::kIdentity ? " identity" : " christofides"));
    }
  }
  EXPECT_GT(tally.moves, 0u);
}

// ---------------------------------------------------------------------------

struct RoundCase {
  std::size_t n;
  std::vector<std::uint64_t> seeds;
};

// The acceptance matrix: reference vs planner x every supported SIMD
// backend, memcmp'd plan + stats. The larger sizes
// keep one seed each to bound runtime.
TEST(ApproIncremental, PlansMatchLegacyByteForByte) {
  const std::vector<RoundCase> cases = {
      {50, {1, 2, 3, 4}}, {200, {1, 2}}, {1200, {9}}};
  for (const RoundCase& c : cases) {
    for (std::uint64_t seed : c.seeds) {
      const model::ChargingProblem problem = random_round(c.n, 2, seed);
      core::ApproStats want_stats;
      const std::vector<unsigned char> want =
          serialize(reference::appro_plan(problem, &want_stats));
      for (simd::Backend b : supported_backends()) {
        BackendGuard guard(b);
        core::ApproStats stats;
        const std::vector<unsigned char> got =
            serialize(core::ApproScheduler().plan_with_stats(problem, &stats));
        EXPECT_TRUE(bytes_equal(want, got))
            << "n=" << c.n << " seed=" << seed
            << " backend=" << static_cast<int>(b);
        expect_stats_equal(want_stats, stats);
      }
    }
  }
}

// plan_with_jobs is deprecated and ignores its hint: every hint must
// return the bits of plan().
TEST(ApproIncremental, PlanWithJobsIsByteIdenticalToPlan) {
  const model::ChargingProblem problem = random_round(300, 3, 11);
  const core::ApproScheduler scheduler;
  const std::vector<unsigned char> want = serialize(scheduler.plan(problem));
  // Via the Scheduler base interface, the only place it is declared.
  const sched::Scheduler& base = scheduler;
  for (std::size_t jobs : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    const auto got = serialize(base.plan_with_jobs(problem, jobs));
    EXPECT_TRUE(bytes_equal(want, got)) << "jobs=" << jobs;
  }
}

// Tight clusters produce a dense charging graph with large H-degrees and
// a big pending set relative to V'_H, so step 6 runs hundreds of picks
// over long pending lists with many equal-f_N ties. The byte-compare
// proves the planner's pick order matches the reference's.
TEST(ApproIncremental, DenseOverlapStressesCompaction) {
  Rng rng(77);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < 600; ++i) {
    // Tight clusters: 20 cluster centers, 30 sensors each.
    const double cx = 5.0 + 90.0 * static_cast<double>(i % 20) / 19.0;
    const double cy = rng.uniform(10.0, 90.0);
    pts.push_back({cx + rng.uniform(-2.0, 2.0), cy + rng.uniform(-2.0, 2.0)});
    deficits.push_back(3456.0);
  }
  const model::ChargingProblem problem(std::move(pts), std::move(deficits),
                                       {50.0, 50.0}, 2.7, 1.0, 2);
  core::ApproStats legacy_stats, stats;
  const auto want =
      serialize(reference::appro_plan(problem, &legacy_stats));
  const auto got =
      serialize(core::ApproScheduler().plan_with_stats(problem, &stats));
  EXPECT_TRUE(bytes_equal(want, got));
  expect_stats_equal(legacy_stats, stats);
  // The scenario indeed forces a non-trivial insertion phase.
  EXPECT_GT(stats.inserted_case_one + stats.inserted_case_two, 20u);
}

}  // namespace
}  // namespace mcharge
