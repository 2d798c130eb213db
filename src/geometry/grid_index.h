// Uniform-grid spatial index over a static point set.
//
// Supports disk queries in O(points in neighborhood) expected time; this is
// what makes the coverage lists N_c+ of 1,200 sensors cheap (radius
// gamma = 2.7 m in a 100 x 100 m field). A simulation builds them once;
// each round's lists, and from them the charging graph G_c, are induced.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/point.h"

namespace mcharge::geom {

class GridIndex {
 public:
  /// Builds an index over `points` with the given grid cell size. Cell size
  /// should be on the order of the typical query radius. The cell doubles
  /// until the bounding box needs at most max(4n, 2^16) cells, so one far
  /// outlier cannot blow up the bucket table. The point set is referenced
  /// by index; the caller keeps ownership of coordinates.
  GridIndex(std::vector<Point> points, double cell_size);

  /// All point indices within distance `radius` of `center` (inclusive),
  /// sorted: visit_disk's hits in ascending id.
  std::vector<std::uint32_t> query_disk(Point center, double radius) const;

  /// Visits point indices within `radius` of `center`; the callback may
  /// return false to stop early. Returns false iff stopped early.
  template <typename Visitor>
  bool visit_disk(Point center, double radius, Visitor&& visit) const;

  /// Visits, in visit_disk's order, the points within `radius` of
  /// `center` that no earlier drain_disk call visited, and removes them
  /// from later drains. The points that stay keep their order, so a BFS
  /// that drains the disk of every popped vertex examines each point only
  /// until it is reached, yet meets the unreached ones exactly as
  /// visit_disk would. A drain only permutes ids within a cell, so
  /// query_disk is unaffected and visit_disk still sees every point. The
  /// first drain allocates the per-cell live ends; an index that is never
  /// drained carries none.
  template <typename Visitor>
  void drain_disk(Point center, double radius, Visitor&& visit);

  std::size_t size() const { return points_.size(); }
  const std::vector<Point>& points() const { return points_; }

 private:
  std::int64_t cell_of(double coord) const;
  std::size_t bucket(std::int64_t cx, std::int64_t cy) const;

  std::vector<Point> points_;
  double cell_size_;
  std::int64_t min_cx_ = 0, min_cy_ = 0;
  std::int64_t num_cx_ = 1, num_cy_ = 1;
  // CSR layout: ids of points in bucket b are cell_points_[cell_start_[b] ..
  // cell_start_[b+1]).
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_points_;
  // drain_disk's state, empty until the first drain: bucket b's undrained
  // ids are cell_points_[cell_start_[b] .. live_end_[b]), in CSR order.
  std::vector<std::uint32_t> live_end_;
};

template <typename Visitor>
bool GridIndex::visit_disk(Point center, double radius,
                           Visitor&& visit) const {
  if (points_.empty()) return true;
  const double r2 = radius * radius;
  const std::int64_t cx_lo = cell_of(center.x - radius);
  const std::int64_t cx_hi = cell_of(center.x + radius);
  const std::int64_t cy_lo = cell_of(center.y - radius);
  const std::int64_t cy_hi = cell_of(center.y + radius);
  for (std::int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
    if (cx < min_cx_ || cx >= min_cx_ + num_cx_) continue;
    for (std::int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
      if (cy < min_cy_ || cy >= min_cy_ + num_cy_) continue;
      const std::size_t b = bucket(cx, cy);
      for (std::uint32_t i = cell_start_[b]; i < cell_start_[b + 1]; ++i) {
        const std::uint32_t id = cell_points_[i];
        if (distance_sq(points_[id], center) <= r2) {
          if (!visit(id)) return false;
        }
      }
    }
  }
  return true;
}

template <typename Visitor>
void GridIndex::drain_disk(Point center, double radius, Visitor&& visit) {
  if (points_.empty()) return;
  if (live_end_.empty()) {
    live_end_.assign(cell_start_.begin() + 1, cell_start_.end());
  }
  // visit_disk's cell walk, over each bucket's live prefix.
  const double r2 = radius * radius;
  const std::int64_t cx_lo = cell_of(center.x - radius);
  const std::int64_t cx_hi = cell_of(center.x + radius);
  const std::int64_t cy_lo = cell_of(center.y - radius);
  const std::int64_t cy_hi = cell_of(center.y + radius);
  for (std::int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
    if (cx < min_cx_ || cx >= min_cx_ + num_cx_) continue;
    for (std::int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
      if (cy < min_cy_ || cy >= min_cy_ + num_cy_) continue;
      const std::size_t b = bucket(cx, cy);
      // Stable compaction of the ids that stay: kept ids move forward in
      // order, and drained ids are swapped behind them, past the live end.
      std::uint32_t kept = cell_start_[b];
      for (std::uint32_t i = kept; i < live_end_[b]; ++i) {
        const std::uint32_t id = cell_points_[i];
        if (distance_sq(points_[id], center) <= r2) {
          visit(id);
        } else {
          std::swap(cell_points_[kept++], cell_points_[i]);
        }
      }
      live_end_[b] = kept;
    }
  }
}

}  // namespace mcharge::geom
