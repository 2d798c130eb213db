#include "graph/mis.h"

namespace mcharge::graph {

std::vector<Vertex> maximal_independent_set(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<char> blocked(n, 0);
  std::vector<Vertex> result;
  for (Vertex v = 0; v < n; ++v) {
    if (blocked[v]) continue;
    result.push_back(v);
    for (Vertex u : g.neighbors(v)) blocked[u] = 1;
  }
  return result;
}

bool is_independent_set(const Graph& g, const std::vector<Vertex>& set) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      if (g.has_edge(set[i], set[j])) return false;
    }
  }
  return true;
}

bool is_maximal_independent_set(const Graph& g,
                                const std::vector<Vertex>& set) {
  if (!is_independent_set(g, set)) return false;
  std::vector<char> in_set(g.num_vertices(), 0);
  for (Vertex v : set) in_set[v] = 1;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (in_set[v]) continue;
    bool dominated = false;
    for (Vertex u : g.neighbors(v)) {
      if (in_set[u]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

}  // namespace mcharge::graph
