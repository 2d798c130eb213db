// Eulerian circuits on undirected multigraphs (Hierholzer's algorithm).
//
// Used by the Christofides TSP construction, where the multigraph
// (MST + matching) has all-even degrees.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace mcharge::graph {

/// Computes an Eulerian circuit of the connected multigraph on `n` vertices
/// given by `edges` (parallel edges allowed), starting at `start`. The
/// result lists vertices in visit order; first == last == start unless the
/// edge set is empty, in which case the result is {start}.
///
/// Preconditions (asserted): every vertex with positive degree is reachable
/// from `start` through the edge set, and all degrees are even.
std::vector<std::uint32_t> eulerian_circuit(
    std::size_t n, const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t start);

/// True iff every vertex of the multigraph has even degree.
bool all_degrees_even(
    std::size_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges);

}  // namespace mcharge::graph
