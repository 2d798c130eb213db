#include "graph/mst.h"

#include <limits>

#include "util/assert.h"
#include "util/simd.h"

namespace mcharge::graph {

std::vector<WeightedEdge> euclidean_mst(
    const std::vector<geom::Point>& points) {
  const std::size_t n = points.size();
  std::vector<WeightedEdge> tree;
  if (n <= 1) return tree;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  tree.reserve(n - 1);
  // Outside vertices in slots [0, live): their ids, coordinates, best
  // attachment so far and its tree end. Two allocations hold all five
  // arrays.
  const std::size_t outside = n - 1;
  std::vector<double> reals(3 * outside);
  std::vector<std::uint32_t> ids(2 * outside);
  double* xs = reals.data();
  double* ys = xs + outside;
  double* best = ys + outside;
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
    const std::size_t pick =
        simd::prim_relax_pick(xs, ys, best, parent, rest, live,
                              points[added].x, points[added].y, added);
    MCHARGE_ASSERT(pick < live, "prim: every distance must be finite");
    added = rest[pick];
    tree.push_back({parent[pick], added, best[pick]});
    // The kernel breaks ties by vertex id, not slot, so the last slot may
    // fill the hole.
    const std::size_t last = live - 1;
    rest[pick] = rest[last];
    parent[pick] = parent[last];
    xs[pick] = xs[last];
    ys[pick] = ys[last];
    best[pick] = best[last];
  }
  return tree;
}

double total_weight(const std::vector<WeightedEdge>& edges) {
  double w = 0.0;
  for (const auto& e : edges) w += e.weight;
  return w;
}

}  // namespace mcharge::graph
