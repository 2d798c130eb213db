// Maximal independent set.
//
// Algorithm Appro uses two MIS computations: S_I on the charging graph G_c
// and V'_H on the overlap graph H. The MIS is maximal (no vertex can be
// added), not maximum; the scan is the paper's plain "find an MIS" in
// index order.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace mcharge::graph {

/// Greedy maximal independent set scanning vertices 0..n-1: a vertex
/// joins unless a neighbor already has. Returns ascending vertex ids.
std::vector<Vertex> maximal_independent_set(const Graph& g);

/// True iff `set` is an independent set of g (no two members adjacent).
/// Ids must be < n; a repeated id is not a conflict (g has no self-loops).
/// Costs one scan of each member's neighbour list.
bool is_independent_set(const Graph& g, const std::vector<Vertex>& set);

/// True iff `set` is independent AND maximal (every vertex outside the set
/// has a neighbor inside it).
bool is_maximal_independent_set(const Graph& g,
                                const std::vector<Vertex>& set);

}  // namespace mcharge::graph
