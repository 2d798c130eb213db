// Minimum spanning trees: Prim over the complete Euclidean graph of a
// point set.
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
/// Vertex 0 seeds the tree. The outside vertices stay packed in a live
/// prefix of SoA slots (ids, coordinates, best attachment, tree end). Each
/// step is one simd::prim_relax_pick over that prefix: it relaxes every
/// slot from the vertex just added (a strictly smaller weight wins) and
/// picks the vertex of smallest attachment weight, ties to the lowest id.
/// The picked slot is then filled by the last one (swap-remove); the id
/// tie-break makes the slot order irrelevant, so the edges are those of
/// Prim over ascending ids. No distance table is ever built.
std::vector<WeightedEdge> euclidean_mst(const std::vector<geom::Point>& points);

/// Total weight of an edge set.
double total_weight(const std::vector<WeightedEdge>& edges);

}  // namespace mcharge::graph
