// Sparse price-and-repair blossom engine (Cook & Rohe style).
//
// 1. Build a candidate graph: k nearest neighbors per vertex by
//    (squared distance, id), found by a sweep over the points along the
//    axis of larger extent, plus a trivial backbone pairing (2i, 2i+1)
//    so a perfect matching always exists.
// 2. Solve exactly on the candidate graph with the shared blossom core.
// 3. Price: scan every non-candidate pair against the solver's final
//    duals. The solver's labels are a feasible dual solution for the
//    candidate graph; a pair (u, v) outside it violates complete-graph
//    dual feasibility only if lab2_u + lab2_v + z2(u, v) < 2 * profit,
//    where z2(u, v) sums the duals of every surviving blossom containing
//    both endpoints (the core's shared_z2).
//    Pricing on labels ALONE is also sound (z >= 0 only tightens the
//    left side) but spuriously flags close pairs inside surviving
//    blossoms, and after a warm re-solve those spurious admissions
//    snowball into an extra full solve round (the BM_Blossom/1024
//    regression).
// 4. Add all violated pairs as candidate edges and re-solve. Every round
//    adds only absent pairs, so the edge set strictly grows and the loop
//    terminates; when no absent pair violates, the duals are feasible on
//    the COMPLETE graph and complementary slackness certifies the current
//    matching as the exact optimum of the same quantized objective the
//    dense engine solves. Re-solves warm-start from the previous round's
//    duals and matching (see the in-loop comment) instead of from cold
//    labels; this changes only the work per round, never the optimum —
//    the quantizer's tie perturbation makes the optimum generically
//    unique, so the dense/sparse identical-matching invariant holds.
//
// The pricing scan is the only part that can reach O(n^2). Its prefilter
// relaxes the int64 dual test to a conservative double-precision
// distance bound
//     dist(u, v) < base - a_u - a_v      (a_x = lab2_x / (2 S scale))
// with a safety margin of several quantization steps (covering llround,
// the resolution clamp, and double rounding), so one squared distance
// and compare per pair rejects almost all pairs; survivors are
// re-checked exactly in int64. The scan walks each point's later
// neighbours in sweep order and stops once the gap along the sweep axis
// alone fails the bound against the least a_v further on.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "matching/blossom.h"
#include "matching/blossom_core.h"
#include "matching/quantize.h"
#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::matching {

namespace detail {

namespace {

/// The points in sweep order: ascending along the axis of larger extent
/// (ties in any order), so points on one vertical line still sweep by y.
/// id[p] is the point at position p, a[p] its coordinate along the axis
/// and b[p] across it. Squared distances over (a, b) are bit-identical to
/// geom::distance_sq, since a sum of two squares does not depend on their
/// order.
struct Sweep {
  std::vector<int> id;
  std::vector<double> a, b;
};

Sweep sweep_order(const std::vector<geom::Point>& pts) {
  const std::size_t n = pts.size();
  const geom::BoundingBox box = geom::bounding_box(pts);
  const bool by_y = box.hi.y - box.lo.y > box.hi.x - box.lo.x;
  const auto along = [by_y](geom::Point q) { return by_y ? q.y : q.x; };
  const auto across = [by_y](geom::Point q) { return by_y ? q.x : q.y; };
  Sweep s{std::vector<int>(n), std::vector<double>(n), std::vector<double>(n)};
  std::iota(s.id.begin(), s.id.end(), 0);
  std::sort(s.id.begin(), s.id.end(),
            [&](int i, int j) { return along(pts[i]) < along(pts[j]); });
  for (std::size_t p = 0; p < n; ++p) {
    s.a[p] = along(pts[s.id[p]]);
    s.b[p] = across(pts[s.id[p]]);
  }
  return s;
}

std::vector<std::pair<int, int>> sweep_knn_edges(const Sweep& sweep,
                                                 int knn) {
  const int n = static_cast<int>(sweep.id.size());
  const int k = std::clamp(knn, 1, n - 1);
  const std::vector<int>& order = sweep.id;
  const std::vector<double>& xs = sweep.a;
  const std::vector<double>& ys = sweep.b;

  // The walk from sweep position p offers the k sweep neighbours on each
  // side first, then goes on outward on each side until the squared
  // gap alone exceeds the k-th smallest squared distance met so far:
  // every later point on that side is at least as far along the axis,
  // and a squared distance never rounds below its squared gap. best holds
  // the k smallest squared distances met, ascending (infinite until k
  // points are met); met_* record every point the walk meets.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> best(k), met_d2(n);
  std::vector<int> met_id(n), tied_id(n);
  std::vector<int> near(static_cast<std::size_t>(n) * k);
  for (int p = 0; p < n; ++p) {
    const geom::Point c{xs[p], ys[p]};
    std::fill(best.begin(), best.end(), kInf);
    int met = 0;
    const auto offer = [&](int q) {
      double d2 = geom::distance_sq(c, {xs[q], ys[q]});
      met_d2[met] = d2;
      met_id[met++] = order[q];
      // Branch-free insertion: d2 sinks to its place and the largest
      // drops out.
      for (int t = 0; t < k; ++t) {
        const double lo = std::min(d2, best[t]);
        d2 = std::max(d2, best[t]);
        best[t] = lo;
      }
    };
    const int hi = std::min(n, p + 1 + k);
    const int lo = std::max(0, p - k);
    for (int q = p + 1; q < hi; ++q) offer(q);
    for (int q = p - 1; q >= lo; --q) offer(q);
    for (int q = hi; q < n; ++q) {
      const double gap = xs[q] - c.x;
      if (gap * gap > best[k - 1]) break;
      offer(q);
    }
    for (int q = lo - 1; q >= 0; --q) {
      const double gap = c.x - xs[q];
      if (gap * gap > best[k - 1]) break;
      offer(q);
    }
    // The k nearest by (squared distance, id): every met point closer
    // than the k-th distance (fewer than k are), then the lowest ids
    // among those at exactly that distance.
    const double dk = best[k - 1];
    int* out = near.data() + static_cast<std::size_t>(order[p]) * k;
    int closer = 0, tied = 0;
    for (int t = 0; t < met; ++t) {
      out[closer] = met_id[t];
      closer += met_d2[t] < dk;
      tied_id[tied] = met_id[t];
      tied += met_d2[t] == dk;
    }
    if (tied > k - closer) std::sort(tied_id.begin(), tied_id.begin() + tied);
    std::copy_n(tied_id.begin(), k - closer, out + closer);
  }

  // Every kNN pair and backbone pair as (lower, higher) endpoint; two
  // stable counting passes, by higher then by lower endpoint, sort them
  // without a comparison, and duplicates end up adjacent.
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(near.size() + n / 2);
  for (int i = 0; i < n; ++i) {
    for (int t = 0; t < k; ++t) {
      const int j = near[static_cast<std::size_t>(i) * k + t];
      pairs.emplace_back(std::min(i, j), std::max(i, j));
    }
  }
  // Backbone: guarantees the candidate graph admits a perfect matching.
  for (int i = 0; i + 1 < n; i += 2) pairs.emplace_back(i, i + 1);
  std::vector<std::pair<int, int>> by_v(pairs.size());
  std::vector<int> head(n + 1);
  const auto counting_pass = [&](const std::vector<std::pair<int, int>>& in,
                                 std::vector<std::pair<int, int>>& out,
                                 auto endpoint) {
    std::fill(head.begin(), head.end(), 0);
    for (const auto& e : in) ++head[endpoint(e) + 1];
    for (int u = 0; u < n; ++u) head[u + 1] += head[u];
    for (const auto& e : in) out[head[endpoint(e)]++] = e;
  };
  counting_pass(pairs, by_v, [](const auto& e) { return e.second; });
  counting_pass(by_v, pairs, [](const auto& e) { return e.first; });
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

}  // namespace

std::vector<std::pair<int, int>> knn_candidate_edges(
    const std::vector<geom::Point>& pts, int knn) {
  return sweep_knn_edges(sweep_order(pts), knn);
}

}  // namespace detail

Matching sparse_blossom_euclidean_matching(const std::vector<geom::Point>& pts,
                                           int knn) {
  const std::size_t n = pts.size();
  MCHARGE_ASSERT(n % 2 == 0, "perfect matching requires even n");
  if (n == 0) return {};
  if (n == 2) return {{0, 1}};

  const detail::BlossomQuantizer qz = detail::make_point_quantizer(pts);
  const detail::Sweep sweep = detail::sweep_order(pts);
  const std::vector<int>& order = sweep.id;
  std::vector<std::pair<int, int>> edges0 = detail::sweep_knn_edges(sweep, knn);

  // Per-vertex pricing terms a_v, and in sweep order with the suffix
  // minima of a_v that bound the pricing window.
  std::vector<double> av(n), sav(n), sav_min(n);
  const std::vector<double>& sa = sweep.a;
  const std::vector<double>& sb = sweep.b;
  const double two_s_scale =
      2.0 * static_cast<double>(qz.tie_scale) * qz.scale;
  const double inv = 1.0 / two_s_scale;
  const double margin = 4.0 / qz.scale;
  const double base =
      (2.0 * static_cast<double>(qz.tie_scale) *
           (static_cast<double>(qz.resolution) + 3.5) +
       2.0 * static_cast<double>(detail::kTieRange)) *
          inv +
      margin;

  // First-scan admission margin: the first (cold) pricing also admits
  // pairs that are within ~1% of violating. Re-solve exit duals drift
  // toward tightness near the structures they repair, so pairs that
  // barely survive the first scan are exactly the ones a later exact
  // scan flags, at the price of one more full solve round; admitting
  // them up front lets the second scan come back clean. Later scans use
  // the exact test only — the termination certificate needs it, and a
  // margin there would re-admit feasible pairs forever.
  const std::int64_t w2_max =
      2 * (qz.resolution + 1) * qz.tie_scale + 2 * detail::kTieRange;
  const std::int64_t first_margin2 = w2_max >> 7;

  std::vector<std::pair<int, int>> edges1;
  std::vector<std::int64_t> w2;
  std::vector<std::int64_t> lab2(n);
  std::vector<std::int32_t> mate(n, 0);
  std::vector<std::int64_t> fold2(n);  ///< enclosing z per vertex
  bool warm = false;
  int round = 0;
  for (;; ++round) {
    OBS_COUNT("blossom.rounds", 1);
    edges1.clear();
    w2.clear();
    edges1.reserve(edges0.size());
    w2.reserve(edges0.size());
    for (const auto& [u, v] : edges0) {
      edges1.emplace_back(u + 1, v + 1);
      w2.push_back(2 * qz.profit(geom::distance(pts[u], pts[v]),
                                 static_cast<std::uint32_t>(u),
                                 static_cast<std::uint32_t>(v)));
    }
    const detail::SparseStore store(static_cast<int>(n), edges1, w2);
    detail::BlossomArena& arena = detail::thread_arena();
    detail::BlossomCore<detail::SparseStore> core(static_cast<int>(n), store,
                                                  arena);
    {
      OBS_SPAN("blossom.solve");
      if (!warm) {
        core.solve();
      } else {
        // Warm start from the previous round's duals and matching instead
        // of from the jump start. solve_from starts blossom-free, so the
        // surviving blossoms' z mass must first move into the labels:
        // lab2_v += Z2(v) / 2, Z2(v) = sum of z over v's nesting chain.
        // The fold keeps every matched pair with IDENTICAL chains exactly
        // tight (their full constraint held with equality and both sides
        // gain the same amount) and preserves feasibility everywhere: a
        // pair's two chain sums each dominate the shared-blossom sum its
        // constraint carries, so the average does too. Without it,
        // dropping z broke tightness of nearly every intra-blossom
        // matched edge and unmatched 50-90% of all vertices. The core's
        // repair passes (parity, feasibility bump over the grown edge
        // set, unmatching non-tight pairs) then break only the pairs
        // near the new edges, and the re-solve repairs just that damage.
        for (std::size_t v = 0; v < n; ++v) lab2[v] += fold2[v] / 2;
        core.solve_from(lab2, mate);
      }
    }

    for (std::size_t v = 0; v < n; ++v) {
      lab2[v] = core.dual2(static_cast<int>(v) + 1);
      mate[v] = static_cast<std::int32_t>(core.partner(static_cast<int>(v) + 1));
      av[v] = static_cast<double>(lab2[v]) * inv;
      fold2[v] = core.enclosing_z2(static_cast<int>(v) + 1);
    }
    warm = true;

    std::size_t added = 0;
    const std::int64_t admit2 = round == 0 ? first_margin2 : 0;
    const double scan_base = base + static_cast<double>(admit2) * inv;
    {
      OBS_SPAN("blossom.price_scan");
      for (std::size_t p = n; p-- > 0;) {
        sav[p] = av[order[p]];
        sav_min[p] = p + 1 < n ? std::min(sav[p], sav_min[p + 1]) : sav[p];
      }
      // Each pair once, from its earlier end in sweep order. The scan
      // from p stops at the first q whose gap reaches bound - sav_min[q]:
      // every later point is at least that far away and has a_v at least
      // sav_min[q], so the prefilter rejects it.
      for (std::size_t p = 0; p + 1 < n; ++p) {
        const double bound = scan_base - sav[p];
        for (std::size_t q = p + 1; q < n; ++q) {
          const double gap = sa[q] - sa[p];
          if (gap >= bound - sav_min[q]) break;
          // d < b, squared: d2 and b * b round within an ulp of the
          // exact values, far inside the bound's margin.
          const double b = bound - sav[q];
          const double d2 = geom::distance_sq({sa[p], sb[p]}, {sa[q], sb[q]});
          if (!(b > 0.0 && d2 < b * b)) continue;
          const auto u = static_cast<std::uint32_t>(std::min(order[p], order[q]));
          const auto v = static_cast<std::uint32_t>(std::max(order[p], order[q]));
          if (store.weight(static_cast<int>(u) + 1, static_cast<int>(v) + 1) !=
              0) {
            continue;  // already a candidate; its constraint is enforced
          }
          const std::int64_t p2 = 2 * qz.profit(std::sqrt(d2), u, v);
          // Full dual test. A pair inside a surviving blossom carries
          // every shared blossom's z on the left side of its
          // complete-graph constraint; pricing on labels alone spuriously
          // flags every close intra-blossom pair (z is large exactly
          // because the blossom is tight), and after a warm re-solve
          // those spurious admissions snowballed into an extra full
          // round.
          const std::int64_t lhs2 =
              lab2[u] + lab2[v] +
              core.shared_z2(static_cast<int>(u) + 1, static_cast<int>(v) + 1);
          if (lhs2 < p2 + admit2) {
            edges0.emplace_back(static_cast<int>(u), static_cast<int>(v));
            // Only a genuine violation forces a re-solve; a margin-only
            // admission is already feasible, so if the whole scan stays
            // exact-clean the certificate below still stands and the
            // soft admissions are simply discarded with the loop.
            if (lhs2 < p2) ++added;
          }
        }
      }
    }
    OBS_COUNT("blossom.edges_added", static_cast<std::int64_t>(added));
    if (added == 0) {
      // Clean pricing + a perfect candidate-graph solve (the backbone
      // guarantees one exists): labels plus the surviving blossom duals
      // are feasible on the complete graph (the solver's blossoms are
      // valid odd sets of the complete graph, and z_B > 0 only on
      // blossoms its matching keeps full), and complementary slackness
      // holds, so this matching is the complete-graph optimum.
      Matching result;
      result.reserve(n / 2);
      for (std::uint32_t v = 0; v < n; ++v) {
        const auto m = static_cast<std::uint32_t>(mate[v] - 1);
        if (v < m) result.emplace_back(v, m);
      }
      MCHARGE_ASSERT(is_perfect_matching(n, result),
                     "sparse blossom produced a non-perfect matching");
      return result;
    }
    std::sort(edges0.begin(), edges0.end());
  }
}

}  // namespace mcharge::matching
