// Test oracle for graph::eulerian_circuit.
//
// per_vertex_hierholzer: Hierholzer over one std::vector of incident edge
// ids per vertex, filled by push_back in edge order. Frozen: the CSR walk
// in graph::eulerian_circuit keeps each vertex's edge ids in the same
// ascending order, so it must reproduce this walk vertex for vertex.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mcharge::graph::oracle {

/// Eulerian circuit of the multigraph `edges` on n vertices from `start`;
/// {start} for an empty edge set. Same preconditions as
/// graph::eulerian_circuit, unchecked.
inline std::vector<std::uint32_t> per_vertex_hierholzer(
    std::size_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t start) {
  if (edges.empty()) return {start};
  std::vector<std::vector<std::size_t>> incident(n);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    incident[edges[e].first].push_back(e);
    incident[edges[e].second].push_back(e);
  }
  std::vector<char> used(edges.size(), 0);
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::uint32_t> stack{start};
  std::vector<std::uint32_t> circuit;
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    bool advanced = false;
    while (cursor[v] < incident[v].size()) {
      const std::size_t e = incident[v][cursor[v]++];
      if (used[e]) continue;
      used[e] = 1;
      const std::uint32_t w =
          edges[e].first == v ? edges[e].second : edges[e].first;
      stack.push_back(w);
      advanced = true;
      break;
    }
    if (!advanced) {
      circuit.push_back(v);
      stack.pop_back();
    }
  }
  std::reverse(circuit.begin(), circuit.end());
  return circuit;
}

}  // namespace mcharge::graph::oracle
