#include "geometry/point.h"

#include "util/assert.h"

namespace mcharge::geom {

void BoundingBox::expand(Point p) {
  if (empty) {
    lo = hi = p;
    empty = false;
    return;
  }
  lo.x = std::min(lo.x, p.x);
  lo.y = std::min(lo.y, p.y);
  hi.x = std::max(hi.x, p.x);
  hi.y = std::max(hi.y, p.y);
}

BoundingBox bounding_box(const std::vector<Point>& pts) {
  BoundingBox box;
  for (Point p : pts) box.expand(p);
  return box;
}

Point centroid(const std::vector<Point>& pts) {
  MCHARGE_ASSERT(!pts.empty(), "centroid of empty point set");
  Point c{0.0, 0.0};
  for (Point p : pts) c = c + p;
  return c * (1.0 / static_cast<double>(pts.size()));
}

}  // namespace mcharge::geom
