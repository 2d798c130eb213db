#include "tsp/construct.h"

#include <algorithm>
#include <limits>

#include "graph/dsu.h"
#include "graph/euler.h"
#include "graph/mst.h"
#include "matching/matching.h"
#include "util/assert.h"

namespace mcharge::tsp {

namespace {

// Internally the TSP runs over m+1 vertices: 0 is the depot, vertex v >= 1
// is site v-1. Distances are served from the problem's cache (the public
// entry points ensure it below).
double vertex_distance(const TourProblem& p, std::uint32_t a, std::uint32_t b) {
  if (a == 0) return b == 0 ? 0.0 : p.distance_depot(b - 1);
  if (b == 0) return p.distance_depot(a - 1);
  return p.distance(a - 1, b - 1);
}

/// Prim over the vertex graph, relaxing straight from the cached rows:
/// the same weights as vertex_distance (the cache holds its exact bits),
/// without its per-call cache-presence checks. Requires m >= 2, so the
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

Tour nearest_neighbor_tour(const TourProblem& problem) {
  const std::size_t m = problem.size();
  problem.ensure_distance_cache();
  if (m <= 1) return m == 0 ? Tour{} : Tour{0};
  Tour tour;
  tour.reserve(m);
  // Each step is a lowest-index strict-< argmin over the unvisited
  // entries of a contiguous cache row (the depot vector for the first
  // hop), so ties go to the lowest site id.
  std::vector<unsigned char> visited(m, 0);
  const double* row = problem.depot_distance_ptr();
  for (std::size_t step = 0; step < m; ++step) {
    std::size_t pick = m;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (visited[i]) continue;
      if (row[i] < best) {
        best = row[i];
        pick = i;
      }
    }
    MCHARGE_ASSERT(pick != m, "unvisited site must exist");
    const auto best_v = static_cast<SiteId>(pick);
    visited[best_v] = 1;
    tour.push_back(best_v);
    row = problem.distance_row_ptr(best_v);
  }
  return tour;
}

Tour greedy_edge_tour(const TourProblem& problem) {
  const std::size_t n = problem.size() + 1;  // vertices incl. depot
  if (problem.size() == 0) return {};
  if (problem.size() == 1) return {0};
  problem.ensure_distance_cache();

  // Sort all vertex pairs by distance; accept an edge if both endpoints
  // have degree < 2 and it does not close a subtour prematurely.
  struct Edge {
    std::uint32_t u, v;
    double w;
  };
  std::vector<Edge> edges;
  edges.reserve(n * (n - 1) / 2);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      edges.push_back({u, v, vertex_distance(problem, u, v)});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.w < b.w; });

  std::vector<std::uint32_t> degree(n, 0);
  graph::Dsu dsu(n);
  std::vector<std::vector<std::uint32_t>> adj(n);
  std::size_t accepted = 0;
  for (const Edge& e : edges) {
    if (accepted == n) break;
    if (degree[e.u] >= 2 || degree[e.v] >= 2) continue;
    const bool closes = dsu.same(e.u, e.v);
    if (closes && accepted != n - 1) continue;  // only final edge may close
    dsu.unite(e.u, e.v);
    ++degree[e.u];
    ++degree[e.v];
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
    ++accepted;
  }
  MCHARGE_ASSERT(accepted == n, "greedy edge construction incomplete");

  // Walk the cycle starting from the depot.
  std::vector<std::uint32_t> cycle;
  cycle.reserve(n);
  std::uint32_t prev = 0, at = 0;
  do {
    cycle.push_back(at);
    const std::uint32_t next =
        (adj[at][0] != prev || adj[at].size() == 1) ? adj[at][0] : adj[at][1];
    prev = at;
    at = next;
  } while (at != 0);
  return cycle_to_tour(cycle);
}

Tour double_tree_tour(const TourProblem& problem) {
  const std::size_t n = problem.size() + 1;
  if (problem.size() == 0) return {};
  // One site: the doubled tree 0-1-0 shortcuts to the tour {0}.
  if (problem.size() == 1) return {0};
  problem.ensure_distance_cache();
  const auto mst = vertex_mst(problem);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> doubled;
  doubled.reserve(mst.size() * 2);
  for (const auto& e : mst) {
    doubled.emplace_back(e.u, e.v);
    doubled.emplace_back(e.u, e.v);
  }
  const auto walk = graph::eulerian_circuit(n, doubled, 0);
  return cycle_to_tour(shortcut(walk, n));
}

Tour christofides_tour(const TourProblem& problem,
                       const matching::MatchingOptions& matching) {
  const std::size_t n = problem.size() + 1;
  if (problem.size() == 0) return {};
  if (problem.size() == 1) return {0};
  problem.ensure_distance_cache();

  const auto mst = vertex_mst(problem);

  std::vector<std::size_t> degree(n, 0);
  for (const auto& e : mst) {
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<std::uint32_t> odd;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (degree[v] % 2 == 1) odd.push_back(v);
  }
  // Handshake lemma: |odd| is even. Match on the odd vertices'
  // coordinates so the geometric engines (sparse blossom by default)
  // apply; the distance cache serves exactly geom::distance bits, so
  // the quantized objective matches the cached metric.
  std::vector<geom::Point> odd_pts;
  odd_pts.reserve(odd.size());
  for (const std::uint32_t v : odd) {
    odd_pts.push_back(v == 0 ? problem.depot : problem.sites[v - 1]);
  }
  const auto match = matching::min_weight_euclidean_matching(odd_pts, matching);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> multigraph;
  multigraph.reserve(mst.size() + match.size());
  for (const auto& e : mst) multigraph.emplace_back(e.u, e.v);
  for (const auto& [a, b] : match) multigraph.emplace_back(odd[a], odd[b]);

  const auto walk = graph::eulerian_circuit(n, multigraph, 0);
  return cycle_to_tour(shortcut(walk, n));
}

Tour build_tour(const TourProblem& problem, TourBuilder builder,
                const matching::MatchingOptions& matching) {
  switch (builder) {
    case TourBuilder::kNearestNeighbor:
      return nearest_neighbor_tour(problem);
    case TourBuilder::kGreedyEdge:
      return greedy_edge_tour(problem);
    case TourBuilder::kDoubleTree:
      return double_tree_tour(problem);
    case TourBuilder::kChristofides:
      return christofides_tour(problem, matching);
  }
  MCHARGE_ASSERT(false, "unknown tour builder");
  return {};
}

}  // namespace mcharge::tsp
