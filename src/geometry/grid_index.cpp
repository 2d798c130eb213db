#include "geometry/grid_index.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace mcharge::geom {

GridIndex::GridIndex(std::vector<Point> points, double cell_size)
    : points_(std::move(points)), cell_size_(cell_size) {
  MCHARGE_ASSERT(cell_size > 0.0, "grid cell size must be positive");
  if (points_.empty()) {
    cell_start_ = {0, 0};
    return;
  }
  const BoundingBox box = bounding_box(points_);
  // One bucket per cell of the bounding box, at most max(4n, 2^16) of them:
  // a far outlier widens the cell instead of sizing the table by the empty
  // space around it. Queries stay exact; a wider cell only prunes less.
  const double max_buckets =
      std::max(4.0 * static_cast<double>(points_.size()), 65536.0);
  const auto cells = [&](double lo, double hi) {
    return std::floor(hi / cell_size_) - std::floor(lo / cell_size_) + 1.0;
  };
  while (cells(box.lo.x, box.hi.x) * cells(box.lo.y, box.hi.y) >
         max_buckets) {
    cell_size_ *= 2.0;
  }
  min_cx_ = cell_of(box.lo.x);
  min_cy_ = cell_of(box.lo.y);
  num_cx_ = cell_of(box.hi.x) - min_cx_ + 1;
  num_cy_ = cell_of(box.hi.y) - min_cy_ + 1;

  const std::size_t num_buckets =
      static_cast<std::size_t>(num_cx_) * static_cast<std::size_t>(num_cy_);
  // Counting sort of points into buckets (CSR build).
  cell_start_.assign(num_buckets + 1, 0);
  std::vector<std::size_t> point_bucket(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const std::size_t b = bucket(cell_of(points_[i].x), cell_of(points_[i].y));
    point_bucket[i] = b;
    ++cell_start_[b + 1];
  }
  for (std::size_t b = 0; b < num_buckets; ++b) {
    cell_start_[b + 1] += cell_start_[b];
  }
  cell_points_.resize(points_.size());
  std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    cell_points_[cursor[point_bucket[i]]++] = static_cast<std::uint32_t>(i);
  }
}

std::int64_t GridIndex::cell_of(double coord) const {
  return static_cast<std::int64_t>(std::floor(coord / cell_size_));
}

std::size_t GridIndex::bucket(std::int64_t cx, std::int64_t cy) const {
  return static_cast<std::size_t>(cx - min_cx_) * static_cast<std::size_t>(num_cy_) +
         static_cast<std::size_t>(cy - min_cy_);
}

std::vector<std::uint32_t> GridIndex::query_disk(Point center,
                                                 double radius) const {
  std::vector<std::uint32_t> out;
  visit_disk(center, radius, [&](std::uint32_t id) {
    out.push_back(id);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mcharge::geom
