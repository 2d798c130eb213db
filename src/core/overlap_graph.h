// Construction of the paper's two auxiliary graphs, both read off the
// problem's coverage lists N_c+(v) — no geometry query of their own.
//
//  * G_c — the charging graph: vertices are the to-be-charged sensors, an
//    edge joins two sensors within charging radius gamma (Section IV), i.e.
//    u in N_c+(v) minus v itself.
//  * H — the overlap graph on a subset S of sensors: an edge joins u, v in
//    S whenever N_c+(u) and N_c+(v) intersect, i.e. two MCVs parked at u
//    and v could energize a common sensor (gamma < d(u,v) <= 2*gamma when
//    S is independent in G_c). Found as two hops over the coverage lists.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "model/charging_problem.h"

namespace mcharge::core {

/// G_c over all sensors of the problem.
graph::Graph charging_graph(const model::ChargingProblem& problem);

/// H over `subset` (distinct sensor ids of the problem). Vertex i of the
/// result corresponds to subset[i]; i and j are joined iff
/// problem.overlapping(subset[i], subset[j]). Cost is the sum over the
/// subset of |N_c+| two-hop walks, O(|S| * d^2) for coverage degree d.
graph::Graph overlap_graph(const model::ChargingProblem& problem,
                           const std::vector<std::uint32_t>& subset);

}  // namespace mcharge::core
