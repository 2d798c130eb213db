#include "graph/mst.h"

#include <algorithm>
#include <limits>

#include "util/assert.h"
#include "util/simd.h"

namespace mcharge::graph {

namespace {

/// Removes slot `pick` from the live prefix [0, live) of `v`, keeping the
/// order of the slots behind it.
template <typename T>
void erase_live(T* v, std::size_t pick, std::size_t live) {
  std::copy(v + pick + 1, v + live, v + pick);
}

}  // namespace

std::vector<WeightedEdge> euclidean_mst(
    const std::vector<geom::Point>& points) {
  const std::size_t n = points.size();
  std::vector<WeightedEdge> tree;
  if (n <= 1) return tree;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  tree.reserve(n - 1);
  // Outside vertices, ascending: their ids, coordinates, best attachment
  // so far and its tree end; `w` takes the row from the vertex just
  // added. Two allocations hold all six arrays.
  const std::size_t outside = n - 1;
  std::vector<double> reals(4 * outside);
  std::vector<std::uint32_t> ids(2 * outside);
  double* xs = reals.data();
  double* ys = xs + outside;
  double* w = ys + outside;
  double* best = w + outside;
  std::uint32_t* rest = ids.data();
  std::uint32_t* parent = rest + outside;
  for (std::size_t r = 0; r < outside; ++r) {
    rest[r] = static_cast<std::uint32_t>(r + 1);
    parent[r] = 0;
    xs[r] = points[r + 1].x;
    ys[r] = points[r + 1].y;
    best[r] = kInf;
  }
  std::uint32_t added = 0;
  for (std::size_t live = outside; live > 0; --live) {
    simd::distance_row(xs, ys, live, points[added].x, points[added].y, w);
    std::size_t pick = live;
    double pick_cost = kInf;
    for (std::size_t r = 0; r < live; ++r) {
      if (w[r] < best[r]) {
        best[r] = w[r];
        parent[r] = added;
      }
      if (best[r] < pick_cost) {
        pick_cost = best[r];
        pick = r;
      }
    }
    MCHARGE_ASSERT(pick < live, "prim: every distance must be finite");
    added = rest[pick];
    tree.push_back({parent[pick], added, pick_cost});
    erase_live(rest, pick, live);
    erase_live(parent, pick, live);
    erase_live(xs, pick, live);
    erase_live(ys, pick, live);
    erase_live(best, pick, live);
  }
  return tree;
}

double total_weight(const std::vector<WeightedEdge>& edges) {
  double w = 0.0;
  for (const auto& e : edges) w += e.weight;
  return w;
}

}  // namespace mcharge::graph
