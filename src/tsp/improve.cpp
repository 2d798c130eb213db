#include "tsp/improve.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "util/assert.h"
#include "util/simd.h"
#include "util/simd_scalar.h"

namespace mcharge::tsp {

namespace {

// Distance helpers treating position -1 and position m as the depot.
// travel() reads the distance cache only when a caller built one, and
// computes the same bits from the coordinates otherwise.
double leg(const TourProblem& p, const Tour& t, std::ptrdiff_t i,
           std::ptrdiff_t j) {
  const bool i_depot = i < 0 || i >= static_cast<std::ptrdiff_t>(t.size());
  const bool j_depot = j < 0 || j >= static_cast<std::ptrdiff_t>(t.size());
  if (i_depot && j_depot) return 0.0;
  if (i_depot) return p.travel_depot(t[static_cast<std::size_t>(j)]);
  if (j_depot) return p.travel_depot(t[static_cast<std::size_t>(i)]);
  return p.travel(t[static_cast<std::size_t>(i)], t[static_cast<std::size_t>(j)]);
}

// Position-ordered SoA mirror of the tour (px[p], py[p] = coordinates of
// tour[p]) with the depot appended as a sentinel at index m so the gain
// kernels may read P[j + 1] for j == m - 1. Recomputing a distance from
// these coordinates yields exactly the bits a cache read (or geom::distance)
// would — the precondition for routing the scans through util/simd.h.
void mirror_tour(const TourProblem& problem, const Tour& tour,
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

// Travel time of the (k, k+1) leg from the mirrored coordinates — the
// exact bits the scan kernels previously recomputed per element.
double leg_time(const std::vector<double>& px, const std::vector<double>& py,
                double speed, std::size_t k) {
  const double dx = px[k] - px[k + 1];
  const double dy = py[k] - py[k + 1];
  return std::sqrt(dx * dx + dy * dy) / speed;
}

// tc[k] = travel time of leg (P[k], P[k+1]) for k in [0, m); the last
// entry is the (P[m-1], depot) leg via the sentinel. Hoisting these out
// of the 2-opt / Or-opt scans removes a sqrt and a divide per scanned
// element; every compared value keeps identical bits.
void fill_leg_times(const std::vector<double>& px,
                    const std::vector<double>& py, double speed,
                    std::vector<double>& tc) {
  const std::size_t m = px.size() - 1;
  tc.resize(m);
  for (std::size_t k = 0; k < m; ++k) tc[k] = leg_time(px, py, speed, k);
}

// Shared implementations with an optional convergence report. `converged`
// (when non-null) is set to true iff the operator's final full scan over
// the move set was clean — i.e. re-running the operator on the returned
// tour would provably apply no move and return exactly 0.0 — and to false
// when the pass/move budget ran out while moves were still being applied.
// improve_tour uses this to skip rounds that are guaranteed no-ops.

double two_opt_impl(const TourProblem& problem, Tour& tour,
                    const ImproveOptions& options, bool* converged) {
  if (converged) *converged = true;
  const std::size_t m = tour.size();
  if (m < 2) return 0.0;
  std::vector<double> px, py, tc;
  mirror_tour(problem, tour, px, py);
  fill_leg_times(px, py, problem.speed, tc);

  // Exact-replay cache over left edges: clean[i] == 1 records that edge
  // i's whole j scan completed with zero hits against the current tour.
  // That scan reads only positions >= i - 1 (ax/bx/base from i-1 and i,
  // P[j], P[j+1] and tc[j] for j > i), and a reversal of [i*, j*] changes
  // positions [i*, j*] and the legs beside them only — so facts for
  // i >= j* + 2 survive every reversal and the later passes of the
  // restart loop, which would re-scan those edges and find nothing, skip
  // them with identical bits. An edge whose scan hit at least once is
  // never marked: the scalar loop resumes after the reversed window
  // without rescanning it, so "no further hit" says nothing about the
  // positions behind the resume point.
  std::vector<unsigned char> clean(m, 0);

  double saved = 0.0;
  bool improved = true;
  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    improved = false;
    // Reverse tour[i..j]; affected legs: (i-1, i) and (j, j+1) become
    // (i-1, j) and (i, j+1). Depot legs included via sentinel positions.
    // For each left edge the j loop is a first-improvement scan with a
    // fixed (ax, ay), (bx, by) and base leg — exactly the shape of
    // simd::two_opt_scan, which returns the first improving j (or kNpos)
    // with the scalar comparison sequence. After a reversal the scan
    // resumes at j + 1 on the updated tour, as the scalar loop did.
    for (std::size_t i = 0; i + 1 < m; ++i) {
      if (clean[i]) continue;
      const auto ip = static_cast<std::ptrdiff_t>(i);
      const double ax = i == 0 ? problem.depot.x : px[i - 1];
      const double ay = i == 0 ? problem.depot.y : py[i - 1];
      double bx = px[i];
      double by = py[i];
      double base = leg(problem, tour, ip - 1, ip);
      // i == 0 with j == m - 1 is the full reversal (no change): the
      // scalar loop skipped it, so the scan simply ends one j earlier.
      const std::size_t j_end = i == 0 ? m - 1 : m;
      std::size_t j = i + 1;
      bool any_hit = false;
      while (j < j_end) {
        const std::size_t hit = simd::two_opt_scan(
            px.data(), py.data(), tc.data(), j, j_end, ax, ay, bx, by,
            problem.speed, base, kMinGain);
        if (hit == simd::kNpos) break;
        const auto jp = static_cast<std::ptrdiff_t>(hit);
        const double before =
            leg(problem, tour, ip - 1, ip) + leg(problem, tour, jp, jp + 1);
        const double after =
            leg(problem, tour, ip - 1, jp) + leg(problem, tour, ip, jp + 1);
        std::reverse(tour.begin() + ip, tour.begin() + jp + 1);
        std::reverse(px.begin() + ip, px.begin() + jp + 1);
        std::reverse(py.begin() + ip, py.begin() + jp + 1);
        // Internal legs keep their lengths with reversed orientation (the
        // squares make direction exact); only the boundary legs change.
        std::reverse(tc.begin() + ip, tc.begin() + jp);
        tc[hit] = leg_time(px, py, problem.speed, hit);
        if (i > 0) tc[i - 1] = leg_time(px, py, problem.speed, i - 1);
        saved += before - after;
        improved = true;
        any_hit = true;
        // The reversal moved positions [i, hit]: every left-edge fact that
        // reads any of them (i' <= hit + 1) is stale.
        std::fill(clean.begin(),
                  clean.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(hit + 2, m)),
                  0);
        // Position i now holds a different point; position i-1 did not move.
        bx = px[i];
        by = py[i];
        base = leg(problem, tour, ip - 1, ip);
        j = hit + 1;
      }
      if (!any_hit) clean[i] = 1;
    }
    if (!improved) break;
  }
  if (converged) *converged = !improved;
  return saved;
}

// Or-opt with exact-replay candidate caching.
//
// The scalar reference is a restart loop: after every applied move the
// walk over candidates (segment length 1..3, start position i ascending,
// insertion slots k = depot, then [0, i-1), then [i+len, m)) starts over
// from the beginning, so every candidate before the next improving one is
// re-evaluated against an unchanged tour and reaches the same conclusion
// it reached last time, bit for bit. This implementation records those
// conclusions instead of recomputing them:
//   kRemovalFail — removal_gain <= kMinGain, so no insertion slot was
//                  even scanned; only the removal legs matter.
//   kScanClean   — removal_gain > kMinGain but no insertion slot beats
//                  the threshold (cached in `thr`).
// Legs are ordered point pairs: the m + 1 legs of the closed tour are
// slot k = (P[k], P[k+1]) for k in [-1, m), with P[-1] = P[m] = depot. A
// candidate (len, i) owns the len + 1 legs k in [i-1, i+len): they fix its
// removal gain, its threshold and its front and end points. It scans every
// other leg as an insertion slot, and a slot's cost is a pure function of
// the slot's ordered pair and those candidate values. A move removes
// exactly 3 legs, (i-1, i), (i+len-1, i+len) and (k, k+1), and adds 3;
// every other leg survives as the same ordered pair (Or-opt never reverses
// a segment). So facts are keyed by the candidate's identity, not its
// position: ids[p] names the point at position p and is permuted with the
// tour, and a fact lives at (len, id of the candidate's front point).
// After each move:
//   * facts whose candidate owns a removed leg are discarded (at most
//     2 + 3 + 4 per removed leg, 27 per move);
//   * every surviving candidate owns the same legs as before, so its
//     kRemovalFail fact needs nothing else, and its kScanClean fact stays
//     true for every surviving slot; it re-checks only the 3 added legs.
//     An improving re-check demotes the fact to kUnknown and the main
//     walk re-evaluates that candidate in order.
// Each conclusion the walk skips is exactly the conclusion the restart
// loop would recompute, so the sequence of applied moves, and the final
// tour and total gain, keep identical bits. The move itself is a rotation
// of the window it changes on tour/px/py/tc/ids: legs inside the window
// keep their ordered pairs, so only the 3 added legs' times are recomputed
// (their bits are a pure function of the mirrored coordinates).
double or_opt_impl(const TourProblem& problem, Tour& tour,
                   const ImproveOptions& options, bool* converged) {
  if (converged) *converged = true;
  const auto m = static_cast<std::ptrdiff_t>(tour.size());
  if (m < 3) return 0.0;
  std::vector<double> px, py, tc;
  mirror_tour(problem, tour, px, py);
  fill_leg_times(px, py, problem.speed, tc);
  const double speed = problem.speed;

  enum : unsigned char { kUnknown = 0, kRemovalFail = 1, kScanClean = 2 };
  const auto mu = static_cast<std::size_t>(m);
  const std::ptrdiff_t max_len = std::min<std::ptrdiff_t>(3, m - 1);
  std::vector<std::size_t> ids(mu);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  std::vector<unsigned char> fact(3 * mu, kUnknown);
  std::vector<double> thr(3 * mu, 0.0);  // threshold, valid under kScanClean
  const auto key = [&](std::ptrdiff_t len, std::ptrdiff_t i) {
    return static_cast<std::size_t>(len - 1) * mu +
           ids[static_cast<std::size_t>(i)];
  };

  // Cost of the depot-front slot (depot, P[0]) for candidate (len, i > 0).
  const auto depot_cost = [&](std::ptrdiff_t len, std::ptrdiff_t i) {
    return leg(problem, tour, -1, i) + leg(problem, tour, i + len - 1, 0) -
           leg(problem, tour, -1, 0);
  };
  // Discards the facts of every candidate owning leg q (old positions).
  const auto drop_owners = [&](std::ptrdiff_t q) {
    for (std::ptrdiff_t len = 1; len <= max_len; ++len) {
      const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, q - len + 1);
      const std::ptrdiff_t hi = std::min(m - len, q + 1);
      for (std::ptrdiff_t i = lo; i <= hi; ++i) fact[key(len, i)] = kUnknown;
    }
  };

  // Re-checks every surviving kScanClean fact against the added legs
  // (the scan's one-element test inline; the depot-front slot by its
  // formula).
  const double floor = simd::prefilter_floor(speed);
  const auto recheck = [&](const std::ptrdiff_t (&added)[3]) {
    for (std::ptrdiff_t len = 1; len <= max_len; ++len) {
      for (std::ptrdiff_t i = 0; i + len <= m; ++i) {
        const std::size_t at = key(len, i);
        if (fact[at] != kScanClean) continue;
        const double threshold = thr[at];
        const double ix = px[static_cast<std::size_t>(i)];
        const double iy = py[static_cast<std::size_t>(i)];
        const double ex = px[static_cast<std::size_t>(i + len - 1)];
        const double ey = py[static_cast<std::size_t>(i + len - 1)];
        for (const std::ptrdiff_t a : added) {
          MCHARGE_DASSERT(a < i - 1 || a > i + len - 1,
                          "a surviving candidate owns no added leg");
          const auto au = static_cast<std::size_t>(a);
          const bool improving =
              a < 0 ? depot_cost(len, i) < threshold
                    : simd::or_opt_hit(px.data(), py.data(), tc.data(), au,
                                       ix, iy, ex, ey, speed, threshold,
                                       floor);
          if (improving) {
            fact[at] = kUnknown;
            break;
          }
        }
      }
    }
  };

  // Rotates [lo, hi) so position mid comes first, on every per-position
  // array alike.
  const auto rotate_window = [&](std::ptrdiff_t lo, std::ptrdiff_t mid,
                                 std::ptrdiff_t hi) {
    std::rotate(tour.begin() + lo, tour.begin() + mid, tour.begin() + hi);
    std::rotate(px.begin() + lo, px.begin() + mid, px.begin() + hi);
    std::rotate(py.begin() + lo, py.begin() + mid, py.begin() + hi);
    std::rotate(tc.begin() + lo, tc.begin() + mid, tc.begin() + hi);
    std::rotate(ids.begin() + lo, ids.begin() + mid, ids.begin() + hi);
  };

  double saved = 0.0;
  bool applied = true;
  for (std::size_t moves = 0; applied && moves < options.max_passes;) {
    applied = false;
    for (std::ptrdiff_t len = 1; len <= max_len; ++len) {
      for (std::ptrdiff_t i = 0; i + len <= m && !applied; ++i) {
        if (fact[key(len, i)] != kUnknown) continue;
        // Segment [i, i+len); try inserting after position k (k outside the
        // segment), i.e. between k and k+1.
        const double removal_gain = leg(problem, tour, i - 1, i) +
                                    leg(problem, tour, i + len - 1, i + len) -
                                    leg(problem, tour, i - 1, i + len);
        if (removal_gain <= kMinGain) {
          fact[key(len, i)] = kRemovalFail;
          continue;
        }
        const double threshold = removal_gain - kMinGain;
        const double ix = px[static_cast<std::size_t>(i)];
        const double iy = py[static_cast<std::size_t>(i)];
        const double ex = px[static_cast<std::size_t>(i + len - 1)];
        const double ey = py[static_cast<std::size_t>(i + len - 1)];
        // The scalar k loop ran -1, 0, .., m-1 skipping the no-op window
        // [i-1, i+len). Same order here: the depot slot k = -1 (checked
        // scalar-style; the window swallows it when i == 0), then the
        // kernel scans [0, i-1) and [i+len, m).
        std::ptrdiff_t k = -2;  // -2: no improving position found
        if (i > 0 && depot_cost(len, i) < threshold) k = -1;
        if (k == -2 && i >= 2) {
          const std::size_t hit = simd::or_opt_scan(
              px.data(), py.data(), tc.data(), 0,
              static_cast<std::size_t>(i - 1), ix, iy, ex, ey, speed,
              threshold);
          if (hit != simd::kNpos) k = static_cast<std::ptrdiff_t>(hit);
        }
        if (k == -2) {
          const std::size_t hit = simd::or_opt_scan(
              px.data(), py.data(), tc.data(),
              static_cast<std::size_t>(i + len), static_cast<std::size_t>(m),
              ix, iy, ex, ey, speed, threshold);
          if (hit != simd::kNpos) k = static_cast<std::ptrdiff_t>(hit);
        }
        if (k == -2) {
          fact[key(len, i)] = kScanClean;
          thr[key(len, i)] = threshold;
          continue;
        }
        const double insert_cost = leg(problem, tour, k, i) +
                                   leg(problem, tour, i + len - 1, k + 1) -
                                   leg(problem, tour, k, k + 1);
        saved += removal_gain - insert_cost;
        ++moves;
        applied = true;  // positions shifted; restart the walk
        drop_owners(i - 1);
        drop_owners(i + len - 1);
        drop_owners(k);
        // Relocate the segment by rotating the window between it and slot
        // k, then time the 3 added legs (slot -1 has no tc entry).
        std::ptrdiff_t added[3];
        if (k < i) {  // segment moves left, in front of [k+1, i)
          rotate_window(k + 1, i, i + len);
          added[0] = k;
          added[1] = k + len;
          added[2] = i + len - 1;
        } else {  // segment moves right, behind [i+len, k+1)
          rotate_window(i, i + len, k + 1);
          added[0] = i - 1;
          added[1] = k - len;
          added[2] = k;
        }
        for (const std::ptrdiff_t a : added) {
          if (a >= 0) {
            tc[static_cast<std::size_t>(a)] =
                leg_time(px, py, speed, static_cast<std::size_t>(a));
          }
        }
        recheck(added);
      }
      if (applied) break;
    }
  }
  if (converged) *converged = !applied;
  return saved;
}

}  // namespace

double two_opt(const TourProblem& problem, Tour& tour,
               const ImproveOptions& options) {
  return two_opt_impl(problem, tour, options, nullptr);
}

double or_opt(const TourProblem& problem, Tour& tour,
              const ImproveOptions& options) {
  return or_opt_impl(problem, tour, options, nullptr);
}

double improve_tour(const TourProblem& problem, Tour& tour,
                    const ImproveOptions& options) {
  double saved = 0.0;
  // "The current tour was verified move-free by a full or_opt walk" — set
  // by a converged or_opt and preserved while nothing touches the tour.
  // Every applied move gains strictly more than kMinGain > 0, so an
  // operator returns exactly 0.0 iff it applied no move and left the tour
  // untouched; that makes both skips below provably bit-neutral: the
  // skipped work would have contributed 0.0 and changed nothing.
  bool or_clean = false;
  for (std::size_t round = 0; round < options.max_passes; ++round) {
    double two_gain = 0.0;
    double or_gain = 0.0;
    bool two_converged = true;
    bool or_converged = true;
    if (options.use_two_opt) {
      two_gain = two_opt_impl(problem, tour, options, &two_converged);
      if (two_gain != 0.0) or_clean = false;  // tour changed under the fact
    }
    if (options.use_or_opt && !or_clean) {
      or_gain = or_opt_impl(problem, tour, options, &or_converged);
      or_clean = or_converged;
    }
    const double round_gain = two_gain + or_gain;
    saved += round_gain;
    if (round_gain <= kMinGain) break;
    // A follow-up round is provably a no-op when two_opt's last full scan
    // was clean with nothing running after it (or_gain == 0.0) and the
    // or-opt move set is verified clean as well.
    const bool two_settled =
        !options.use_two_opt || (two_converged && or_gain == 0.0);
    const bool or_settled = !options.use_or_opt || or_clean;
    if (two_settled && or_settled) break;
  }
  return saved;
}

}  // namespace mcharge::tsp
