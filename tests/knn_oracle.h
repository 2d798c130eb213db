// Test oracle: the sparse blossom's candidate graph as the grid builder
// made it, with expanding-radius GridIndex::query_disk calls per vertex
// and one global sort of every emitted pair.
// detail::knn_candidate_edges builds it with a sweep along the axis of
// larger extent instead; it must return this edge list exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/grid_index.h"
#include "geometry/point.h"

namespace mcharge::matching::oracle {

/// Each vertex's `knn` nearest others by (squared distance, id) plus the
/// backbone pairs (2i, 2i + 1); 0-based (u, v) with u < v, ascending and
/// unique. Needs at least two points.
inline std::vector<std::pair<int, int>> grid_knn_edges(
    const std::vector<geom::Point>& pts, int knn) {
  const int n = static_cast<int>(pts.size());
  knn = std::clamp(knn, 1, n - 1);

  const geom::BoundingBox box = geom::bounding_box(pts);
  const double diag = box.empty ? 0.0 : geom::distance(box.lo, box.hi);
  const double cell =
      diag > 0.0 ? diag / std::sqrt(static_cast<double>(n)) : 1.0;
  const geom::GridIndex grid(pts, cell);

  std::vector<std::pair<int, int>> edges;
  std::vector<std::pair<double, std::uint32_t>> near;
  for (int i = 0; i < n; ++i) {
    double radius = cell;
    std::vector<std::uint32_t> ids;
    for (;;) {
      ids = grid.query_disk(pts[i], radius);
      ids.erase(std::remove(ids.begin(), ids.end(),
                            static_cast<std::uint32_t>(i)),
                ids.end());
      if (static_cast<int>(ids.size()) >= knn || radius > diag) break;
      radius *= 2.0;
    }
    near.clear();
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
  for (int i = 0; i + 1 < n; i += 2) edges.emplace_back(i, i + 1);

  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace mcharge::matching::oracle
