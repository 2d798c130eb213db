// Clustered test layouts built from uniform offsets. geom::clustered_field
// draws Box-Muller normals (std::log / std::cos), which would tie a pinned
// digest to one libm; only + - * / shape these points.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "geometry/field.h"
#include "geometry/point.h"
#include "util/rng.h"

namespace mcharge::testing_layouts {

/// n points around `clusters` uniform centres in [0, width] x [0, height]:
/// each picks a centre uniformly and adds a uniform offset in [-r, r] per
/// axis, clamped to the field.
inline std::vector<geom::Point> offset_clusters(std::size_t n, double width,
                                                double height,
                                                std::size_t clusters, double r,
                                                Rng& rng) {
  const auto centers = geom::uniform_field(clusters, width, height, rng);
  std::vector<geom::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point& c = centers[rng.below(centers.size())];
    pts.push_back({std::clamp(c.x + rng.uniform(-r, r), 0.0, width),
                   std::clamp(c.y + rng.uniform(-r, r), 0.0, height)});
  }
  return pts;
}

}  // namespace mcharge::testing_layouts
