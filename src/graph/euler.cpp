#include "graph/euler.h"

#include <algorithm>

#include "util/assert.h"

namespace mcharge::graph {

std::vector<std::uint32_t> eulerian_circuit(
    std::size_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    std::uint32_t start) {
  MCHARGE_ASSERT(start < n, "euler: start vertex out of range");
  if (edges.empty()) return {start};
  MCHARGE_ASSERT(edges.size() <= UINT32_MAX / 2, "euler: too many edges");

  // Incidence lists as CSR: vertex v's edge ids sit in
  // incident[first[v], first[v + 1]), ascending (a self-loop twice).
  // Degrees come from the same count, so the parity check costs no pass.
  std::vector<std::uint32_t> first(n + 1, 0);
  for (const auto& [u, v] : edges) {
    MCHARGE_ASSERT(u < n && v < n, "euler: vertex out of range");
    ++first[u + 1];
    ++first[v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    MCHARGE_ASSERT(first[v + 1] % 2 == 0,
                   "eulerian circuit requires all-even degrees");
    first[v + 1] += first[v];
  }
  std::vector<std::uint32_t> cursor(first.begin(), first.end() - 1);
  std::vector<std::uint32_t> incident(2 * edges.size());
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    incident[cursor[edges[e].first]++] = e;
    incident[cursor[edges[e].second]++] = e;
  }
  std::copy(first.begin(), first.end() - 1, cursor.begin());
  std::vector<char> used(edges.size(), 0);

  // Iterative Hierholzer; each undirected edge used once.
  std::vector<std::uint32_t> stack;
  std::vector<std::uint32_t> circuit;
  stack.reserve(edges.size() + 1);
  circuit.reserve(edges.size() + 1);
  stack.push_back(start);
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    bool advanced = false;
    while (cursor[v] < first[v + 1]) {
      const std::uint32_t e = incident[cursor[v]++];
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
  MCHARGE_ASSERT(circuit.size() == edges.size() + 1,
                 "eulerian circuit did not use every edge; graph disconnected?");
  std::reverse(circuit.begin(), circuit.end());
  return circuit;
}

}  // namespace mcharge::graph
