#include "tsp/construct.h"

#include "graph/euler.h"
#include "graph/mst.h"
#include "matching/matching.h"
#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::tsp {

namespace {

// Internally the TSP runs over m+1 vertices: 0 is the depot, vertex v >= 1
// is site v-1.

/// Prim over the vertex graph, relaxing straight from the cached rows
/// (the cache holds exact geom::distance bits). Requires m >= 2, so the
/// cache tables exist.
std::vector<graph::WeightedEdge> vertex_mst(const TourProblem& p) {
  const std::size_t m = p.size();
  const double* depot = p.depot_distance_ptr();
  const double* matrix = p.distance_row_ptr(0);
  MCHARGE_ASSERT(m >= 2 && depot != nullptr && matrix != nullptr,
                 "vertex_mst needs the distance cache");
  return graph::prim_mst(m + 1, [=](std::uint32_t a, std::uint32_t b) {
    if (a == 0) return b == 0 ? 0.0 : depot[b - 1];
    if (b == 0) return depot[a - 1];
    return matrix[std::size_t{a - 1} * m + (b - 1)];
  });
}

/// Converts a vertex cycle (containing vertex 0 exactly once after
/// shortcutting) into a site tour starting after the depot.
Tour cycle_to_tour(const std::vector<std::uint32_t>& cycle) {
  // Find depot position.
  std::size_t depot_pos = 0;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (cycle[i] == 0) {
      depot_pos = i;
      break;
    }
  }
  Tour tour;
  tour.reserve(cycle.size() - 1);
  for (std::size_t step = 1; step < cycle.size(); ++step) {
    const std::uint32_t v = cycle[(depot_pos + step) % cycle.size()];
    tour.push_back(v - 1);
  }
  return tour;
}

/// Shortcuts an Eulerian walk into a Hamiltonian cycle (first occurrences).
std::vector<std::uint32_t> shortcut(const std::vector<std::uint32_t>& walk,
                                    std::size_t num_vertices) {
  std::vector<char> seen(num_vertices, 0);
  std::vector<std::uint32_t> cycle;
  cycle.reserve(num_vertices);
  for (std::uint32_t v : walk) {
    if (!seen[v]) {
      seen[v] = 1;
      cycle.push_back(v);
    }
  }
  return cycle;
}

}  // namespace

Tour christofides_tour(const TourProblem& problem,
                       const matching::MatchingOptions& matching) {
  const std::size_t n = problem.size() + 1;
  if (problem.size() == 0) return {};
  if (problem.size() == 1) return {0};
  problem.ensure_distance_cache();

  // One span per stage; tracing never changes a result.
  std::vector<graph::WeightedEdge> mst;
  {
    OBS_SPAN("tsp.mst");
    mst = vertex_mst(problem);
  }

  std::vector<std::uint32_t> odd;
  matching::Matching match;
  {
    OBS_SPAN("tsp.odd_match");
    std::vector<std::size_t> degree(n, 0);
    for (const auto& e : mst) {
      ++degree[e.u];
      ++degree[e.v];
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      if (degree[v] % 2 == 1) odd.push_back(v);
    }
    // Handshake lemma: |odd| is even. Match on the odd vertices'
    // coordinates so the geometric engines apply; the distance cache
    // serves exactly geom::distance bits, so the quantized objective
    // matches the cached metric.
    std::vector<geom::Point> odd_pts;
    odd_pts.reserve(odd.size());
    for (const std::uint32_t v : odd) {
      odd_pts.push_back(v == 0 ? problem.depot : problem.sites[v - 1]);
    }
    match = matching::min_weight_euclidean_matching(odd_pts, matching);
  }

  OBS_SPAN("tsp.euler");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> multigraph;
  multigraph.reserve(mst.size() + match.size());
  for (const auto& e : mst) multigraph.emplace_back(e.u, e.v);
  for (const auto& [a, b] : match) multigraph.emplace_back(odd[a], odd[b]);

  const auto walk = graph::eulerian_circuit(n, multigraph, 0);
  return cycle_to_tour(shortcut(walk, n));
}

Tour build_tour(const TourProblem& problem, TourBuilder /*builder*/,
                const matching::MatchingOptions& matching) {
  return christofides_tour(problem, matching);
}

}  // namespace mcharge::tsp
