// 2-D points and basic Euclidean geometry for the WRSN plane.
#pragma once

#include <cmath>
#include <vector>

namespace mcharge::geom {

/// A point (or free vector) in the 2-D monitoring plane, in meters.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Point operator+(Point a, Point b) {
    return {a.x + b.x, a.y + b.y};
  }
  friend constexpr Point operator-(Point a, Point b) {
    return {a.x - b.x, a.y - b.y};
  }
  friend constexpr Point operator*(Point a, double k) {
    return {a.x * k, a.y * k};
  }
  friend constexpr Point operator*(double k, Point a) { return a * k; }
  friend constexpr bool operator==(Point a, Point b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// Squared Euclidean distance (avoids the sqrt in comparisons).
constexpr double distance_sq(Point a, Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Euclidean distance.
inline double distance(Point a, Point b) {
  return std::sqrt(distance_sq(a, b));
}

/// True iff b lies within (or on) the disk of radius r centered at a.
inline bool within(Point a, Point b, double r) {
  return distance_sq(a, b) <= r * r;
}

/// Axis-aligned bounding box of a point set; empty() if no points.
struct BoundingBox {
  Point lo{0.0, 0.0};
  Point hi{0.0, 0.0};
  bool empty = true;

  void expand(Point p);
  bool contains(Point p) const {
    return !empty && p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }
  double width() const { return empty ? 0.0 : hi.x - lo.x; }
  double height() const { return empty ? 0.0 : hi.y - lo.y; }
};

BoundingBox bounding_box(const std::vector<Point>& pts);

/// Centroid of a non-empty point set.
Point centroid(const std::vector<Point>& pts);

}  // namespace mcharge::geom
