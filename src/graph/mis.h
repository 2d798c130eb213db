// Maximal independent set algorithms.
//
// Algorithm Appro uses two MIS computations: S_I on the charging graph G_c
// and V'_H on the overlap graph H. The MIS is maximal (no vertex can be
// added), not maximum; the vertex scan order is a quality knob that the
// ablation bench exercises.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace mcharge::graph {

// Values are fixed: 2 and 4 belonged to retired orders (max-degree, random)
// and are not reused, so an order keeps its number in printed parameters.
enum class MisOrder {
  kIndex = 0,      ///< scan vertices 0..n-1 (deterministic baseline)
  kMinDegree = 1,  ///< ascending degree (tends to produce larger sets)
  kPriority = 3,   ///< caller-supplied key, ascending (e.g. charging duration)
};

/// Greedy maximal independent set in the given scan order. For kPriority the
/// `priority` vector (one key per vertex, lower = earlier) is required.
/// Returns sorted vertex ids.
std::vector<Vertex> maximal_independent_set(
    const Graph& g, MisOrder order = MisOrder::kIndex,
    const std::vector<double>* priority = nullptr);

/// True iff `set` is an independent set of g (no two members adjacent).
bool is_independent_set(const Graph& g, const std::vector<Vertex>& set);

/// True iff `set` is independent AND maximal (every vertex outside the set
/// has a neighbor inside it).
bool is_maximal_independent_set(const Graph& g,
                                const std::vector<Vertex>& set);

}  // namespace mcharge::graph
