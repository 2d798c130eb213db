#include "graph/mis.h"

#include "util/assert.h"

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

namespace {

/// Marks the members of `set` (ids asserted in range).
std::vector<char> membership(const Graph& g, const std::vector<Vertex>& set) {
  std::vector<char> in_set(g.num_vertices(), 0);
  for (const Vertex v : set) {
    MCHARGE_ASSERT(v < in_set.size(), "vertex out of range");
    in_set[v] = 1;
  }
  return in_set;
}

/// True iff no member has a neighbour marked in `in_set`: one scan of
/// each member's adjacency list, O(sum of member degrees).
bool independent(const Graph& g, const std::vector<Vertex>& set,
                 const std::vector<char>& in_set) {
  for (const Vertex v : set) {
    for (const Vertex u : g.neighbors(v)) {
      if (in_set[u]) return false;
    }
  }
  return true;
}

}  // namespace

bool is_independent_set(const Graph& g, const std::vector<Vertex>& set) {
  return independent(g, set, membership(g, set));
}

bool is_maximal_independent_set(const Graph& g,
                                const std::vector<Vertex>& set) {
  const std::vector<char> in_set = membership(g, set);
  if (!independent(g, set, in_set)) return false;
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
