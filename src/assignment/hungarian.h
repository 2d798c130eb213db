// Minimum-cost assignment (Hungarian algorithm, potentials formulation,
// O(n^2 * m)). Used by the K-EDF baseline to dispatch K chargers to the K
// sensors of a group with minimum total travel distance.
#pragma once

#include <cstdint>
#include <vector>

namespace mcharge::assignment {

/// Cost matrix accessor: cost(row, col), rows = workers, cols = tasks.
/// Solves min-cost perfect assignment of `rows` workers to distinct columns
/// out of `cols` (requires rows <= cols). Returns, per row, the chosen
/// column. Complexity O(rows^2 * cols).
struct AssignmentResult {
  std::vector<std::uint32_t> column_of_row;
  double total_cost = 0.0;
};

AssignmentResult solve_assignment(const std::vector<std::vector<double>>& cost);

}  // namespace mcharge::assignment
