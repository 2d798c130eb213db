// Unit and property tests for the geometry module.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geometry/field.h"
#include "geometry/grid_index.h"
#include "geometry/point.h"
#include "util/rng.h"

namespace mcharge::geom {
namespace {

TEST(Point, Arithmetic) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -1.0};
  EXPECT_EQ((a + b), (Point{4.0, 1.0}));
  EXPECT_EQ((a - b), (Point{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (Point{2.0, 4.0}));
  EXPECT_EQ((2.0 * a), (Point{2.0, 4.0}));
}

TEST(Point, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(Point, WithinIsInclusive) {
  EXPECT_TRUE(within({0, 0}, {3, 4}, 5.0));
  EXPECT_FALSE(within({0, 0}, {3, 4}, 4.999));
  EXPECT_TRUE(within({0, 0}, {0, 0}, 0.0));
}

TEST(BoundingBox, ExpandAndContains) {
  BoundingBox box;
  EXPECT_TRUE(box.empty);
  box.expand({1, 2});
  box.expand({-1, 5});
  EXPECT_FALSE(box.empty);
  EXPECT_TRUE(box.contains({0, 3}));
  EXPECT_FALSE(box.contains({2, 3}));
  EXPECT_DOUBLE_EQ(box.width(), 2.0);
  EXPECT_DOUBLE_EQ(box.height(), 3.0);
}

TEST(Centroid, OfSquare) {
  const std::vector<Point> square{{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  const Point c = centroid(square);
  EXPECT_DOUBLE_EQ(c.x, 1.0);
  EXPECT_DOUBLE_EQ(c.y, 1.0);
}

// ---------- GridIndex ----------

std::vector<std::uint32_t> brute_disk(const std::vector<Point>& pts,
                                      Point center, double r) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (within(center, pts[i], r)) out.push_back(i);
  }
  return out;
}

TEST(GridIndex, EmptyPointSet) {
  GridIndex index({}, 1.0);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.query_disk({0, 0}, 10.0).empty());
}

TEST(GridIndex, SinglePoint) {
  GridIndex index({{5, 5}}, 1.0);
  EXPECT_EQ(index.query_disk({5, 5}, 0.0).size(), 1u);
  EXPECT_TRUE(index.query_disk({7, 5}, 1.0).empty());
  EXPECT_EQ(index.query_disk({6, 5}, 1.0).size(), 1u);
}

class GridIndexProperty : public ::testing::TestWithParam<int> {};

TEST_P(GridIndexProperty, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 50 + rng.below(200);
  auto pts = uniform_field(n, 100.0, 100.0, rng);
  GridIndex index(pts, 2.7);
  for (int q = 0; q < 50; ++q) {
    const Point c{rng.uniform(-10, 110), rng.uniform(-10, 110)};
    const double r = rng.uniform(0.0, 15.0);
    auto got = index.query_disk(c, r);
    auto want = brute_disk(pts, c, r);
    EXPECT_EQ(got, want) << "center (" << c.x << "," << c.y << ") r " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexProperty, ::testing::Range(0, 8));

TEST(GridIndex, FarOutlierKeepsBucketTableSmall) {
  // A cluster plus one point ~1e12 m away: one bucket per 2.7 m cell of the
  // bounding box would need ~1.4e23 buckets. The index must build and
  // answer every query exactly as brute force does.
  Rng rng(11);
  auto pts = uniform_field(60, 20.0, 20.0, rng);
  pts.push_back({1e12, 1e12});
  GridIndex index(pts, 2.7);
  for (int q = 0; q < 40; ++q) {
    const Point c{rng.uniform(-5, 25), rng.uniform(-5, 25)};
    const double r = rng.uniform(0.0, 6.0);
    EXPECT_EQ(index.query_disk(c, r), brute_disk(pts, c, r))
        << "center (" << c.x << "," << c.y << ") r " << r;
  }
  EXPECT_EQ(index.query_disk({1e12, 1e12}, 1.0),
            (std::vector<std::uint32_t>{60}));
}

TEST(GridIndex, VisitEarlyStop) {
  Rng rng(3);
  auto pts = uniform_field(100, 10.0, 10.0, rng);
  GridIndex index(pts, 1.0);
  int count = 0;
  const bool completed = index.visit_disk({5, 5}, 20.0, [&](std::uint32_t) {
    return ++count < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3);
}

TEST(GridIndex, DrainVisitsInVisitDiskOrderOnce) {
  // Each drain must visit the disk's not-yet-drained points in exactly
  // visit_disk's order on an undrained index, and no point may be visited
  // by two drains. Duplicated points share the corpus; with the far
  // outlier the cell widens until the whole field sits in one bucket.
  for (const bool outlier : {false, true}) {
    Rng rng(17);
    auto pts = uniform_field(400, 40.0, 40.0, rng);
    const auto copy = pts;
    pts.insert(pts.end(), copy.begin(), copy.begin() + 50);
    if (outlier) pts.push_back({1e9, 1e9});
    const GridIndex reference(pts, 2.7);
    GridIndex index(pts, 2.7);
    std::vector<char> drained(pts.size(), 0);
    std::size_t total = 0;
    for (int q = 0; q < 300; ++q) {
      const Point c = outlier && q == 299
                          ? Point{1e9, 1e9}
                          : Point{rng.uniform(-5, 45), rng.uniform(-5, 45)};
      const double r = rng.uniform(0.0, 6.0);
      std::vector<std::uint32_t> want;
      reference.visit_disk(c, r, [&](std::uint32_t id) {
        if (!drained[id]) want.push_back(id);
        return true;
      });
      std::vector<std::uint32_t> got;
      index.drain_disk(c, r, [&](std::uint32_t id) { got.push_back(id); });
      ASSERT_EQ(got, want) << "outlier " << outlier << " drain " << q;
      for (const std::uint32_t id : got) drained[id] = 1;
      total += got.size();
    }
    EXPECT_GT(total, pts.size() / 2);
    // A drained index still answers exact disk queries over every point.
    for (int q = 0; q < 40; ++q) {
      const Point c{rng.uniform(-5, 45), rng.uniform(-5, 45)};
      const double r = rng.uniform(0.0, 8.0);
      EXPECT_EQ(index.query_disk(c, r), brute_disk(pts, c, r));
    }
  }
}

// ---------- fields ----------

TEST(Field, UniformWithinBounds) {
  Rng rng(1);
  auto pts = uniform_field(500, 100.0, 50.0, rng);
  EXPECT_EQ(pts.size(), 500u);
  for (Point p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 100.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 50.0);
  }
}

TEST(Field, UniformCoversField) {
  Rng rng(2);
  auto pts = uniform_field(2000, 100.0, 100.0, rng);
  const auto box = bounding_box(pts);
  EXPECT_LT(box.lo.x, 10.0);
  EXPECT_GT(box.hi.x, 90.0);
  EXPECT_LT(box.lo.y, 10.0);
  EXPECT_GT(box.hi.y, 90.0);
}

TEST(Field, ClusteredWithinBoundsAndClumped) {
  Rng rng(4);
  auto pts = clustered_field(1000, 100.0, 100.0, 3, 5.0, rng);
  EXPECT_EQ(pts.size(), 1000u);
  for (Point p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 100.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 100.0);
  }
  // Clumped: the mean nearest-neighbor distance should be well below the
  // uniform expectation (~0.5 / sqrt(density) = 1.58 m for 1000 in 100x100).
  double total_nn = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    double best = 1e18;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (i == j) continue;
      best = std::min(best, distance(pts[i], pts[j]));
    }
    total_nn += best;
  }
  EXPECT_LT(total_nn / 200.0, 1.2);
}

TEST(Field, GridLayoutIsSpread) {
  Rng rng(5);
  auto pts = grid_field(100, 100.0, 100.0, 0.1, rng);
  EXPECT_EQ(pts.size(), 100u);
  // Min pairwise distance should be close to the 10 m pitch.
  double min_d = 1e18;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      min_d = std::min(min_d, distance(pts[i], pts[j]));
    }
  }
  EXPECT_GT(min_d, 5.0);
}

TEST(Field, ZeroPoints) {
  Rng rng(6);
  EXPECT_TRUE(uniform_field(0, 10, 10, rng).empty());
  EXPECT_TRUE(grid_field(0, 10, 10, 0.1, rng).empty());
}

}  // namespace
}  // namespace mcharge::geom
