#include "assignment/hungarian.h"

#include <limits>

#include "util/assert.h"

namespace mcharge::assignment {

AssignmentResult solve_assignment(
    const std::vector<std::vector<double>>& cost) {
  const std::size_t rows = cost.size();
  AssignmentResult result;
  if (rows == 0) return result;
  const std::size_t cols = cost[0].size();
  MCHARGE_ASSERT(rows <= cols, "assignment requires rows <= cols");
  for (const auto& row : cost) {
    MCHARGE_ASSERT(row.size() == cols, "cost matrix must be rectangular");
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // 1-based potentials formulation (classic formulation with virtual col 0).
  std::vector<double> u(rows + 1, 0.0), v(cols + 1, 0.0);
  std::vector<std::size_t> match_col(cols + 1, 0);  // row matched to col
  std::vector<std::size_t> way(cols + 1, 0);

  for (std::size_t i = 1; i <= rows; ++i) {
    match_col[0] = i;
    std::size_t j0 = 0;
    std::vector<double> min_v(cols + 1, kInf);
    std::vector<char> used(cols + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = match_col[j0];
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= cols; ++j) {
        if (used[j]) continue;
        const double cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
        if (cur < min_v[j]) {
          min_v[j] = cur;
          way[j] = j0;
        }
        if (min_v[j] < delta) {
          delta = min_v[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= cols; ++j) {
        if (used[j]) {
          u[match_col[j]] += delta;
          v[j] -= delta;
        } else {
          min_v[j] -= delta;
        }
      }
      j0 = j1;
    } while (match_col[j0] != 0);
    // Augment along the alternating path.
    do {
      const std::size_t j1 = way[j0];
      match_col[j0] = match_col[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  result.column_of_row.assign(rows, 0);
  for (std::size_t j = 1; j <= cols; ++j) {
    if (match_col[j] != 0) {
      result.column_of_row[match_col[j] - 1] = static_cast<std::uint32_t>(j - 1);
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    result.total_cost += cost[i][result.column_of_row[i]];
  }
  return result;
}

}  // namespace mcharge::assignment
