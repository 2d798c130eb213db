// Sparse price-and-repair blossom engine (Cook & Rohe style).
//
// 1. Build a candidate graph: k nearest neighbors per vertex (grid index,
//    expanding-radius queries) plus a trivial backbone pairing
//    (2i, 2i+1) so a perfect matching always exists.
// 2. Solve exactly on the candidate graph with the shared blossom core.
// 3. Price: scan every non-candidate pair against the solver's final
//    duals. The solver's labels are a feasible dual solution for the
//    candidate graph; a pair (u, v) outside it violates complete-graph
//    dual feasibility only if lab2_u + lab2_v + z2(u, v) < 2 * profit,
//    where z2(u, v) sums the duals of every surviving blossom containing
//    both endpoints (the common prefix of the two nesting chains).
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
// The pricing scan is the only O(n^2) part. Its prefilter relaxes the
// int64 dual test to a conservative double-precision distance bound
//     dist(u, v) < base - a_u - a_v      (a_x = lab2_x / (2 S scale))
// with a safety margin of several quantization steps (covering llround,
// the resolution clamp, and double rounding), so one distance and compare
// per pair rejects almost all pairs; survivors are re-checked exactly in
// int64.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "geometry/grid_index.h"
#include "geometry/point.h"
#include "matching/blossom.h"
#include "matching/blossom_core.h"
#include "matching/quantize.h"
#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::matching {

namespace {

/// k-NN + backbone candidate edges, 0-based, u < v, sorted, unique.
std::vector<std::pair<int, int>> candidate_edges(
    const std::vector<geom::Point>& pts, int knn) {
  const int n = static_cast<int>(pts.size());
  knn = std::clamp(knn, 1, n - 1);

  const geom::BoundingBox box = geom::bounding_box(pts);
  const double diag = box.empty ? 0.0 : geom::distance(box.lo, box.hi);
  const double cell =
      diag > 0.0 ? diag / std::sqrt(static_cast<double>(n)) : 1.0;
  const geom::GridIndex grid(pts, cell);

  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(n) * knn / 2 + n);
  std::vector<std::pair<double, std::uint32_t>> near;
  for (int i = 0; i < n; ++i) {
    double radius = cell;
    std::vector<std::uint32_t> ids;
    for (;;) {
      ids = grid.query_disk_excluding(pts[i], radius,
                                      static_cast<std::uint32_t>(i));
      if (static_cast<int>(ids.size()) >= knn || radius > diag) break;
      radius *= 2.0;
    }
    near.clear();
    near.reserve(ids.size());
    for (const std::uint32_t id : ids) {
      near.emplace_back(geom::distance_sq(pts[i], pts[id]), id);
    }
    std::sort(near.begin(), near.end());
    const int take = std::min<int>(knn, static_cast<int>(near.size()));
    for (int k = 0; k < take; ++k) {
      const int j = static_cast<int>(near[k].second);
      edges.emplace_back(std::min(i, j), std::max(i, j));
    }
  }
  // Backbone: guarantees the candidate graph admits a perfect matching.
  for (int i = 0; i + 1 < n; i += 2) edges.emplace_back(i, i + 1);

  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace

Matching sparse_blossom_euclidean_matching(const std::vector<geom::Point>& pts,
                                           int knn) {
  const std::size_t n = pts.size();
  MCHARGE_ASSERT(n % 2 == 0, "perfect matching requires even n");
  if (n == 0) return {};
  if (n == 2) return {{0, 1}};

  const detail::BlossomQuantizer qz = detail::make_point_quantizer(pts);
  std::vector<std::pair<int, int>> edges0 = candidate_edges(pts, knn);

  // Per-vertex pricing terms a_v for the prefilter sweep.
  std::vector<double> av(n);
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
  std::vector<std::vector<std::pair<std::int32_t, std::int64_t>>> chains(n);
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
        // pair's two chain sums each dominate the common-prefix sum its
        // constraint carries, so the average does too. Without it,
        // dropping z broke tightness of nearly every intra-blossom
        // matched edge and unmatched 50-90% of all vertices. The core's
        // repair passes (parity, feasibility bump over the grown edge
        // set, unmatching non-tight pairs) then break only the pairs
        // near the new edges, and the re-solve repairs just that damage.
        for (std::size_t v = 0; v < n; ++v) {
          std::int64_t zsum2 = 0;
          for (const auto& [b, z2] : chains[v]) zsum2 += z2;
          lab2[v] += zsum2 / 2;
        }
        core.solve_from(lab2, mate);
      }
    }

    for (std::size_t v = 0; v < n; ++v) {
      lab2[v] = core.dual2(static_cast<int>(v) + 1);
      mate[v] = static_cast<std::int32_t>(core.partner(static_cast<int>(v) + 1));
      av[v] = static_cast<double>(lab2[v]) * inv;
    }
    core.export_blossom_chains(chains);
    warm = true;

    std::size_t added = 0;
    const std::int64_t admit2 = round == 0 ? first_margin2 : 0;
    const double scan_base = base + static_cast<double>(admit2) * inv;
    {
      OBS_SPAN("blossom.price_scan");
      for (std::size_t u = 0; u + 1 < n; ++u) {
        const double bound = scan_base - av[u];
        for (auto v = static_cast<std::uint32_t>(u + 1); v < n; ++v) {
          const double d = geom::distance(pts[u], pts[v]);
          if (!(d < bound - av[v])) continue;
          if (store.weight(static_cast<int>(u) + 1, static_cast<int>(v) + 1) !=
              0) {
            continue;  // already a candidate; its constraint is enforced
          }
          const std::int64_t p2 =
              2 * qz.profit(d, static_cast<std::uint32_t>(u), v);
          // Full dual test. A pair inside a surviving blossom carries
          // every shared blossom's z on the left side of its
          // complete-graph constraint; pricing on labels alone spuriously
          // flags every close intra-blossom pair (z is large exactly
          // because the blossom is tight), and after a warm re-solve
          // those spurious admissions snowballed into an extra full
          // round. The shared blossoms are the common prefix of the two
          // nesting chains (outermost first), so the exact test sums z
          // over that prefix.
          std::int64_t lhs2 = lab2[u] + lab2[v];
          const auto& cu = chains[u];
          const auto& cv = chains[v];
          const std::size_t depth = std::min(cu.size(), cv.size());
          for (std::size_t i = 0; i < depth && cu[i].first == cv[i].first;
               ++i) {
            lhs2 += cu[i].second;
          }
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
