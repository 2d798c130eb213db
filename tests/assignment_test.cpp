// Tests for the Hungarian assignment solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "assignment/hungarian.h"
#include "util/assert.h"
#include "util/rng.h"

namespace mcharge::assignment {
namespace {

/// Brute-force reference (permutations); requires rows == cols <= 9.
AssignmentResult solve_assignment_brute_force(
    const std::vector<std::vector<double>>& cost) {
  const std::size_t n = cost.size();
  MCHARGE_ASSERT(n <= 9, "brute force limited to n <= 9");
  AssignmentResult best;
  if (n == 0) return best;
  MCHARGE_ASSERT(cost[0].size() == n, "brute force requires square matrix");
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  best.total_cost = std::numeric_limits<double>::infinity();
  do {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += cost[i][perm[i]];
    if (total < best.total_cost) {
      best.total_cost = total;
      best.column_of_row = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Hungarian, EmptyInput) {
  const auto r = solve_assignment({});
  EXPECT_TRUE(r.column_of_row.empty());
  EXPECT_DOUBLE_EQ(r.total_cost, 0.0);
}

TEST(Hungarian, SingleCell) {
  const auto r = solve_assignment({{7.5}});
  ASSERT_EQ(r.column_of_row.size(), 1u);
  EXPECT_EQ(r.column_of_row[0], 0u);
  EXPECT_DOUBLE_EQ(r.total_cost, 7.5);
}

TEST(Hungarian, TwoByTwoPicksCrossWhenCheaper) {
  // Diagonal costs 10+10, cross costs 1+1.
  const auto r = solve_assignment({{10.0, 1.0}, {1.0, 10.0}});
  EXPECT_EQ(r.column_of_row[0], 1u);
  EXPECT_EQ(r.column_of_row[1], 0u);
  EXPECT_DOUBLE_EQ(r.total_cost, 2.0);
}

TEST(Hungarian, RectangularLeavesColumnsUnused) {
  // 2 workers, 3 tasks; the expensive middle column should be skipped.
  const auto r = solve_assignment({{1.0, 50.0, 2.0}, {2.0, 50.0, 1.0}});
  ASSERT_EQ(r.column_of_row.size(), 2u);
  EXPECT_DOUBLE_EQ(r.total_cost, 2.0);
  EXPECT_NE(r.column_of_row[0], 1u);
  EXPECT_NE(r.column_of_row[1], 1u);
  EXPECT_NE(r.column_of_row[0], r.column_of_row[1]);
}

TEST(Hungarian, HandlesNegativeCosts) {
  const auto r = solve_assignment({{-5.0, 0.0}, {0.0, -5.0}});
  EXPECT_DOUBLE_EQ(r.total_cost, -10.0);
}

class HungarianVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(HungarianVsBrute, SquareRandomMatricesMatchOptimal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 17);
  const std::size_t n = 1 + rng.below(7);  // 1..7
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (auto& c : row) c = rng.uniform(0.0, 100.0);
  }
  const auto fast = solve_assignment(cost);
  const auto brute = solve_assignment_brute_force(cost);
  EXPECT_NEAR(fast.total_cost, brute.total_cost, 1e-9);
  // The assignment itself must be a valid permutation.
  std::vector<char> used(n, 0);
  for (auto col : fast.column_of_row) {
    ASSERT_LT(col, n);
    EXPECT_FALSE(used[col]);
    used[col] = 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianVsBrute, ::testing::Range(0, 20));

TEST(Hungarian, LargeInstanceRunsAndIsConsistent) {
  Rng rng(123);
  const std::size_t n = 120;
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (auto& c : row) c = rng.uniform(0.0, 1.0);
  }
  const auto r = solve_assignment(cost);
  double recomputed = 0.0;
  std::vector<char> used(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FALSE(used[r.column_of_row[i]]);
    used[r.column_of_row[i]] = 1;
    recomputed += cost[i][r.column_of_row[i]];
  }
  EXPECT_NEAR(recomputed, r.total_cost, 1e-9);
  // Sanity: the optimum of n uniform(0,1) entries is far below a random
  // diagonal assignment (~n/2 expected).
  EXPECT_LT(r.total_cost, n * 0.25);
}

}  // namespace
}  // namespace mcharge::assignment
