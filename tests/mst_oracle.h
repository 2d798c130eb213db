// Test oracle: Prim over an arbitrary weight callable, reading one weight
// per pair. graph::euclidean_mst, which streams SIMD distance rows from
// SoA coordinates, must reproduce its (u, v, weight) sequence bit for bit
// under the geom::distance weight.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/mst.h"
#include "util/assert.h"

namespace mcharge::graph::oracle {

/// MST of the complete graph over n vertices with weights weight(a, b),
/// via Prim in O(n^2). Returns n-1 edges (empty for n <= 1). A template so
/// the weight callable inlines into the relax loop.
///
/// Vertex 0 seeds the tree. Each step relaxes the vertices still outside
/// the tree from the vertex just added (a strictly smaller weight wins)
/// and then adds the lowest-index vertex of strictly smallest attachment
/// weight. The outside vertices are kept packed in ascending order, so
/// one fused pass does both and the work shrinks as the tree grows.
template <typename Weight>
std::vector<WeightedEdge> prim_mst(std::size_t n, Weight&& weight) {
  std::vector<WeightedEdge> tree;
  if (n <= 1) return tree;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  tree.reserve(n - 1);
  // Outside vertices, ascending, with their best attachment so far.
  std::vector<std::uint32_t> rest(n - 1);
  std::vector<double> best(n - 1, kInf);
  std::vector<std::uint32_t> parent(n - 1, 0);
  for (std::size_t r = 0; r + 1 < n; ++r) {
    rest[r] = static_cast<std::uint32_t>(r + 1);
  }
  std::uint32_t added = 0;
  for (std::size_t live = n - 1; live > 0; --live) {
    std::size_t pick = live;
    double pick_cost = kInf;
    for (std::size_t r = 0; r < live; ++r) {
      const double w = weight(added, rest[r]);
      if (w < best[r]) {
        best[r] = w;
        parent[r] = added;
      }
      if (best[r] < pick_cost) {
        pick_cost = best[r];
        pick = r;
      }
    }
    MCHARGE_ASSERT(pick < live, "prim: graph must be complete");
    added = rest[pick];
    tree.push_back({parent[pick], added, pick_cost});
    const auto from = static_cast<std::ptrdiff_t>(pick);
    const auto to = static_cast<std::ptrdiff_t>(live);
    std::copy(rest.begin() + from + 1, rest.begin() + to, rest.begin() + from);
    std::copy(best.begin() + from + 1, best.begin() + to, best.begin() + from);
    std::copy(parent.begin() + from + 1, parent.begin() + to,
              parent.begin() + from);
  }
  return tree;
}

}  // namespace mcharge::graph::oracle
