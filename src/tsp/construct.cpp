#include "tsp/construct.h"

#include "graph/euler.h"
#include "graph/mst.h"
#include "matching/matching.h"
#include "obs/obs.h"

namespace mcharge::tsp {

namespace {

// Internally the TSP runs over m+1 vertices: 0 is the depot, vertex v >= 1
// is site v-1.

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

  // One span per stage; tracing never changes a result.
  std::vector<geom::Point> vertices;
  std::vector<graph::WeightedEdge> mst;
  {
    OBS_SPAN("tsp.mst");
    vertices.reserve(n);
    vertices.push_back(problem.depot);
    vertices.insert(vertices.end(), problem.sites.begin(),
                    problem.sites.end());
    mst = graph::euclidean_mst(vertices);
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
    // coordinates so the geometric engines apply; the MST weights carry
    // exactly geom::distance bits, so both stages see one metric.
    std::vector<geom::Point> odd_pts;
    odd_pts.reserve(odd.size());
    for (const std::uint32_t v : odd) odd_pts.push_back(vertices[v]);
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
