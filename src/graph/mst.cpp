#include "graph/mst.h"

#include <algorithm>

#include "graph/dsu.h"

namespace mcharge::graph {

std::vector<WeightedEdge> euclidean_mst(
    const std::vector<geom::Point>& points) {
  return prim_mst(points.size(), [&](std::uint32_t a, std::uint32_t b) {
    return geom::distance(points[a], points[b]);
  });
}

std::vector<WeightedEdge> kruskal_mst(std::size_t n,
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

double total_weight(const std::vector<WeightedEdge>& edges) {
  double w = 0.0;
  for (const auto& e : edges) w += e.weight;
  return w;
}

}  // namespace mcharge::graph
