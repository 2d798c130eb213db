// Minimum spanning trees: Prim over the complete Euclidean graph of a
// point set, Kruskal for explicit weighted edge lists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/point.h"

namespace mcharge::graph {

struct WeightedEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  double weight = 0.0;
};

/// MST of the complete Euclidean graph over `points`, via Prim in
/// O(n^2) time and O(n) memory. Returns n-1 (u, v, weight) edges in the
/// order Prim adds them (empty for n <= 1); weights carry the exact bits
/// of geom::distance.
///
/// Vertex 0 seeds the tree. The outside vertices stay packed in ascending
/// order, with SoA copies of their coordinates compacted alongside. Each
/// step computes one simd::distance_row from the vertex just added over
/// the live prefix, relaxes it (a strictly smaller weight wins) and, in
/// the same pass, picks the lowest-index vertex of strictly smallest
/// attachment weight. No distance table is ever built.
std::vector<WeightedEdge> euclidean_mst(const std::vector<geom::Point>& points);

/// Kruskal over an explicit edge list. If the graph is disconnected the
/// result is a minimum spanning forest.
std::vector<WeightedEdge> kruskal_mst(std::size_t n,
                                      std::vector<WeightedEdge> edges);

/// Total weight of an edge set.
double total_weight(const std::vector<WeightedEdge>& edges);

}  // namespace mcharge::graph
