// Test oracles for graph::euclidean_mst.
//
// prim_mst: Prim over an arbitrary weight callable, reading one weight per
// pair, with the outside vertices kept in ascending order. Frozen:
// graph::euclidean_mst, which runs a fused SIMD relax-and-pick over SoA
// slots it reorders by swap-remove, must reproduce its (u, v, weight)
// sequence bit for bit under the geom::distance weight.
//
// kruskal_mst: Kruskal over an explicit edge list, on a disjoint-set
// union (Dsu); an independent check of the tree's total weight.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
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

/// Disjoint-set union (union-find) with path halving and union by size.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n), size_(n, 1), components_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  std::uint32_t find(std::uint32_t x) {
    MCHARGE_ASSERT(x < parent_.size(), "DSU element out of range");
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }
  /// Unites the sets of a and b; returns false iff already united.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --components_;
    return true;
  }
  bool same(std::uint32_t a, std::uint32_t b) { return find(a) == find(b); }
  std::size_t num_components() const { return components_; }
  std::size_t component_size(std::uint32_t x) { return size_[find(x)]; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t components_;
};

/// Kruskal over an explicit edge list. If the graph is disconnected the
/// result is a minimum spanning forest.
inline std::vector<WeightedEdge> kruskal_mst(std::size_t n,
                                             std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return a.weight < b.weight;
            });
  Dsu dsu(n);
  std::vector<WeightedEdge> tree;
  for (const auto& e : edges) {
    if (dsu.unite(e.u, e.v)) tree.push_back(e);
  }
  return tree;
}

}  // namespace mcharge::graph::oracle
