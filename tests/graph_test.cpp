// Unit and property tests for the graph module: adjacency graph, MIS, DSU,
// MST, Euler circuits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <numeric>

#include "geometry/field.h"
#include "graph/euler.h"
#include "graph/graph.h"
#include "graph/mis.h"
#include "graph/mst.h"
#include "euler_oracle.h"
#include "mst_oracle.h"
#include "simd_backends.h"
#include "util/rng.h"

namespace mcharge::graph {
namespace {

TEST(Graph, AddAndQueryEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, DuplicateEdgesIgnored) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 1);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, NeighborsSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto& nbrs = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 3u);
}

TEST(Graph, EdgesListLexicographic) {
  Graph g(4);
  g.add_edge(3, 1);
  g.add_edge(0, 2);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<Vertex, Vertex>{0, 2}));
  EXPECT_EQ(edges[1], (std::pair<Vertex, Vertex>{1, 3}));
}

TEST(Graph, MaxDegree) {
  Graph g(4);
  EXPECT_EQ(g.max_degree(), 0u);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  EXPECT_EQ(g.max_degree(), 3u);
}

// ---------- MIS ----------

/// Brute-force O(n^2) disk graph: an edge wherever two points lie within
/// `radius` (the shape of the paper's G_c).
Graph disk_graph(const std::vector<geom::Point>& pts, double radius) {
  Graph g(pts.size());
  for (Vertex u = 0; u < pts.size(); ++u) {
    for (Vertex v = u + 1; v < pts.size(); ++v) {
      if (geom::within(pts[u], pts[v], radius)) g.add_edge(u, v);
    }
  }
  return g;
}

class MisProperty : public ::testing::TestWithParam<int> {};

TEST_P(MisProperty, IndependentAndMaximal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto pts = geom::uniform_field(120, 40.0, 40.0, rng);
  const Graph g = disk_graph(pts, 3.0);
  const auto set = maximal_independent_set(g);
  EXPECT_TRUE(is_independent_set(g, set));
  EXPECT_TRUE(is_maximal_independent_set(g, set));
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
}

INSTANTIATE_TEST_SUITE_P(SweepOrders, MisProperty, ::testing::Range(0, 5));

TEST(Mis, EmptyGraph) {
  Graph g(0);
  EXPECT_TRUE(maximal_independent_set(g).empty());
}

TEST(Mis, NoEdgesTakesAll) {
  Graph g(5);
  const auto set = maximal_independent_set(g);
  EXPECT_EQ(set.size(), 5u);
}

TEST(Mis, CompleteGraphTakesOne) {
  Graph g(5);
  for (Vertex u = 0; u < 5; ++u) {
    for (Vertex v = u + 1; v < 5; ++v) g.add_edge(u, v);
  }
  EXPECT_EQ(maximal_independent_set(g).size(), 1u);
}

TEST(Mis, IsIndependentRejectsAdjacentPair) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(is_independent_set(g, {0, 1}));
  EXPECT_TRUE(is_independent_set(g, {0, 2}));
  // {0} is independent but not maximal (2 is undominated).
  EXPECT_FALSE(is_maximal_independent_set(g, {0}));
}

/// The pairwise check is_independent_set used to run: has_edge on every
/// pair of members.
bool pairwise_independent(const Graph& g, const std::vector<Vertex>& set) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      if (g.has_edge(set[i], set[j])) return false;
    }
  }
  return true;
}

TEST(Mis, LinearCheckMatchesPairwiseOnRandomSubsets) {
  // Random graphs of every density, each probed with its own MIS (which
  // must pass), MIS subsets with an added neighbour (which must fail),
  // random subsets, and subsets carrying duplicate ids.
  int dependent = 0, duplicated = 0;
  for (int trial = 0; trial < 240; ++trial) {
    Rng rng(9100 + static_cast<std::uint64_t>(trial));
    const std::size_t n = 1 + rng.below(60);
    const double density = rng.uniform(0.0, 0.5);
    Graph g(n);
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u + 1; v < n; ++v) {
        if (rng.uniform() < density) g.add_edge(u, v);
      }
    }
    std::vector<std::vector<Vertex>> probes;
    const auto mis = maximal_independent_set(g);
    probes.push_back(mis);
    std::vector<Vertex> with_neighbor = mis;
    for (const Vertex v : mis) {
      if (!g.neighbors(v).empty()) {
        with_neighbor.push_back(g.neighbors(v).front());
        break;
      }
    }
    probes.push_back(with_neighbor);
    std::vector<Vertex> random_subset;
    for (Vertex v = 0; v < n; ++v) {
      if (rng.uniform() < 0.3) random_subset.push_back(v);
    }
    probes.push_back(random_subset);
    std::vector<Vertex> with_duplicates = mis;
    for (std::size_t i = 0, size = mis.size(); i < size; i += 2) {
      with_duplicates.push_back(mis[i]);
    }
    probes.push_back(with_duplicates);
    for (const auto& set : probes) {
      const bool expected = pairwise_independent(g, set);
      EXPECT_EQ(is_independent_set(g, set), expected) << "trial=" << trial;
      if (!expected) {
        ++dependent;
        EXPECT_FALSE(is_maximal_independent_set(g, set)) << "trial=" << trial;
      }
      duplicated += set.size() > std::set<Vertex>(set.begin(), set.end()).size();
    }
    EXPECT_TRUE(is_maximal_independent_set(g, with_duplicates));
  }
  // The sweep really reaches both verdicts and the duplicate-id case.
  EXPECT_GT(dependent, 100);
  EXPECT_GT(duplicated, 100);
}

// ---------- DSU ----------

TEST(Dsu, UniteAndFind) {
  oracle::Dsu dsu(5);
  EXPECT_EQ(dsu.num_components(), 5u);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_TRUE(dsu.unite(1, 2));
  EXPECT_FALSE(dsu.unite(0, 2));
  EXPECT_TRUE(dsu.same(0, 2));
  EXPECT_FALSE(dsu.same(0, 3));
  EXPECT_EQ(dsu.num_components(), 3u);
  EXPECT_EQ(dsu.component_size(2), 3u);
  EXPECT_EQ(dsu.component_size(4), 1u);
}

// ---------- MST ----------

TEST(Mst, PrimOnSquare) {
  const std::vector<geom::Point> pts{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  const auto tree = euclidean_mst(pts);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_DOUBLE_EQ(total_weight(tree), 3.0);
}

TEST(Mst, PrimMatchesKruskalWeight) {
  Rng rng(77);
  const auto pts = geom::uniform_field(60, 100.0, 100.0, rng);
  const auto prim = euclidean_mst(pts);
  std::vector<WeightedEdge> edges;
  for (std::uint32_t u = 0; u < pts.size(); ++u) {
    for (std::uint32_t v = u + 1; v < pts.size(); ++v) {
      edges.push_back({u, v, geom::distance(pts[u], pts[v])});
    }
  }
  const auto kruskal = oracle::kruskal_mst(pts.size(), edges);
  EXPECT_EQ(prim.size(), kruskal.size());
  EXPECT_NEAR(total_weight(prim), total_weight(kruskal), 1e-9);
}

TEST(Mst, TrivialSizes) {
  EXPECT_TRUE(euclidean_mst({}).empty());
  EXPECT_TRUE(euclidean_mst({{1, 1}}).empty());
  const auto one = euclidean_mst({{0, 0}, {3, 4}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0].weight, 5.0);
}

TEST(Mst, SoaPrimMatchesFrozenTemplate) {
  // euclidean_mst runs one fused relax-and-pick kernel per step over SoA
  // slots it reorders by swap-remove; the frozen template reads
  // geom::distance pair by pair over ascending ids. Both must emit
  // the same (u, v, weight) sequence, weights compared bit for bit, on
  // every backend and on layouts full of exact ties.
  const auto layouts = [](std::size_t n, std::uint64_t seed) {
    std::vector<std::vector<geom::Point>> out;
    Rng rng(seed);
    out.push_back(geom::uniform_field(n, 1000.0, 1000.0, rng));
    out.push_back(geom::clustered_field(n, 1000.0, 1000.0, 4, 20.0, rng));
    std::vector<geom::Point> duplicated;
    for (const geom::Point& pt : geom::uniform_field((n + 1) / 2, 100.0,
                                                     100.0, rng)) {
      duplicated.push_back(pt);
      duplicated.push_back(pt);
    }
    duplicated.resize(n);
    out.push_back(duplicated);
    std::vector<geom::Point> collinear;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(rng.below(64));
      collinear.push_back({3.0 * t, 7.0 + 2.0 * t});
    }
    out.push_back(collinear);
    out.push_back(std::vector<geom::Point>(n, geom::Point{12.5, -3.0}));
    // Integer lattices, where many different pairs tie exactly: once in
    // row-major order and once shuffled, so that equal attachment weights
    // meet in every slot order the swap-remove leaves and only the
    // lowest-id tie-break reproduces the frozen template.
    std::size_t side = 1;
    while (side * side < n) ++side;
    std::vector<geom::Point> lattice;
    for (std::size_t i = 0; i < n; ++i) {
      lattice.push_back({static_cast<double>(i % side),
                         static_cast<double>(i / side)});
    }
    out.push_back(lattice);
    rng.shuffle(lattice);
    out.push_back(lattice);
    return out;
  };
  std::size_t trees = 0;
  for (const simd::Backend backend : supported_backends()) {
    const BackendGuard guard(backend);
    // 4-7 cover the SIMD tails, 218 Appro's daily-overload size.
    for (const std::size_t n :
         {0, 1, 2, 3, 4, 5, 6, 7, 50, 64, 218, 505, 1200}) {
      for (const auto& pts : layouts(n, 900 + n)) {
        const auto got = euclidean_mst(pts);
        const auto want =
            oracle::prim_mst(pts.size(), [&](std::uint32_t a, std::uint32_t b) {
              return geom::distance(pts[a], pts[b]);
            });
        ASSERT_EQ(got.size(), want.size()) << "n=" << n;
        for (std::size_t e = 0; e < got.size(); ++e) {
          ASSERT_EQ(got[e].u, want[e].u) << "n=" << n << " edge " << e;
          ASSERT_EQ(got[e].v, want[e].v) << "n=" << n << " edge " << e;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[e].weight),
                    std::bit_cast<std::uint64_t>(want[e].weight))
              << "n=" << n << " edge " << e;
        }
        ++trees;
      }
    }
  }
  EXPECT_GE(trees, 91u);
}

TEST(Mst, KruskalDisconnectedIsForest) {
  std::vector<WeightedEdge> edges{{0, 1, 1.0}, {2, 3, 2.0}};
  const auto forest = oracle::kruskal_mst(4, edges);
  EXPECT_EQ(forest.size(), 2u);
}

// ---------- Euler ----------

TEST(Euler, SimpleCycle) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges{
      {0, 1}, {1, 2}, {2, 0}};
  const auto walk = eulerian_circuit(3, edges, 0);
  ASSERT_EQ(walk.size(), 4u);
  EXPECT_EQ(walk.front(), 0u);
  EXPECT_EQ(walk.back(), 0u);
}

TEST(Euler, UsesEveryEdgeOnce) {
  // Doubled MST-style multigraph on 5 vertices.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> tree{
      {0, 1}, {1, 2}, {1, 3}, {3, 4}};
  for (auto e : tree) {
    edges.push_back(e);
    edges.push_back(e);
  }
  const auto walk = eulerian_circuit(5, edges, 0);
  EXPECT_EQ(walk.size(), edges.size() + 1);
  // Count undirected edge usages.
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> used;
  for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
    auto key = std::minmax(walk[i], walk[i + 1]);
    ++used[{key.first, key.second}];
  }
  for (auto e : tree) {
    EXPECT_EQ((used[{std::min(e.first, e.second),
                     std::max(e.first, e.second)}]),
              2);
  }
}

TEST(Euler, EmptyEdgeSet) {
  const auto walk = eulerian_circuit(3, {}, 1);
  ASSERT_EQ(walk.size(), 1u);
  EXPECT_EQ(walk[0], 1u);
}

TEST(Euler, OddDegreeIsRejected) {
  // The CSR's degree count is also the parity check.
  EXPECT_EQ(eulerian_circuit(3, {{0, 1}, {1, 2}, {2, 0}}, 0).size(), 4u);
  EXPECT_EQ(eulerian_circuit(2, {{0, 1}, {0, 1}}, 1).size(), 3u);
  EXPECT_DEATH(eulerian_circuit(3, {{0, 1}}, 0), "all-even degrees");
  EXPECT_DEATH(eulerian_circuit(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}}, 0),
               "all-even degrees");
}

class MstProperty : public ::testing::TestWithParam<int> {};

TEST_P(MstProperty, TreeIsSpanningAcyclicAndNoWorseThanRandomTrees) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 733 + 41);
  const std::size_t n = 2 + rng.below(40);
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  const auto tree = euclidean_mst(pts);
  ASSERT_EQ(tree.size(), n - 1);
  // Spanning and acyclic via DSU.
  oracle::Dsu dsu(n);
  for (const auto& e : tree) {
    EXPECT_TRUE(dsu.unite(e.u, e.v)) << "cycle in MST";
  }
  EXPECT_EQ(dsu.num_components(), 1u);
  // Weight no worse than a few random spanning trees (random permutation
  // chains).
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    double chain = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      chain += geom::distance(pts[order[i]], pts[order[i + 1]]);
    }
    EXPECT_LE(total_weight(tree), chain + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstProperty, ::testing::Range(0, 8));

class EulerProperty : public ::testing::TestWithParam<int> {};

TEST_P(EulerProperty, DoubledRandomTreeAlwaysHasCircuit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 3);
  const std::size_t n = 2 + rng.below(60);
  // Random tree: attach each vertex to a random earlier one; double edges.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t v = 1; v < n; ++v) {
    const auto p = static_cast<std::uint32_t>(rng.below(v));
    edges.emplace_back(p, v);
    edges.emplace_back(p, v);
  }
  const auto start = static_cast<std::uint32_t>(rng.below(n));
  const auto walk = eulerian_circuit(n, edges, start);
  ASSERT_EQ(walk.size(), edges.size() + 1);
  EXPECT_EQ(walk.front(), start);
  EXPECT_EQ(walk.back(), start);
  // Every consecutive pair must be one of the multigraph's edges.
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> remaining;
  for (auto [a, b] : edges) {
    ++remaining[{std::min(a, b), std::max(a, b)}];
  }
  for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
    auto key = std::minmax(walk[i], walk[i + 1]);
    auto it = remaining.find({key.first, key.second});
    ASSERT_NE(it, remaining.end());
    if (--it->second == 0) remaining.erase(it);
  }
  EXPECT_TRUE(remaining.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EulerProperty, ::testing::Range(0, 8));

TEST(Euler, CsrMatchesFrozenHierholzer) {
  // Random connected even-degree multigraphs: a union of closed walks,
  // each starting on a vertex an earlier walk touched, over a random
  // subset of the vertices (the rest stay isolated). Walks repeat pairs
  // and a one-step walk is a self-loop; a walk step may also add the
  // same pair twice more, in both orientations, as parallel edges. Every
  // vertex with an edge is tried as the start.
  std::size_t walks = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(8100 + seed);
    const std::size_t n = 1 + rng.below(40);
    std::vector<std::uint32_t> members;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (members.empty() || rng.below(4) != 0) members.push_back(v);
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    std::vector<std::uint32_t> touched{members[rng.below(members.size())]};
    const std::size_t cycles = rng.below(6);
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::uint32_t from = touched[rng.below(touched.size())];
      std::uint32_t at = from;
      const std::size_t length = 1 + rng.below(8);
      for (std::size_t step = 0; step < length; ++step) {
        const std::uint32_t to = step + 1 == length
                                     ? from
                                     : members[rng.below(members.size())];
        edges.emplace_back(at, to);
        if (rng.below(5) == 0) {
          edges.emplace_back(to, at);
          edges.emplace_back(at, to);
        }
        touched.push_back(to);
        at = to;
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const std::uint32_t start : touched) {
      ASSERT_EQ(eulerian_circuit(n, edges, start),
                oracle::per_vertex_hierholzer(n, edges, start))
          << "seed=" << seed << " start=" << start;
      ++walks;
    }
  }
  EXPECT_GE(walks, 200u);
}

TEST(Mis, RandomGraphsNotJustGeometric) {
  // Erdos-Renyi-ish graphs exercise MIS away from unit-disk structure.
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng(6000 + static_cast<std::uint64_t>(trial));
    const std::size_t n = 5 + rng.below(80);
    Graph g(n);
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u + 1; v < n; ++v) {
        if (rng.uniform() < 0.15) g.add_edge(u, v);
      }
    }
    EXPECT_TRUE(is_maximal_independent_set(g, maximal_independent_set(g)));
  }
}

}  // namespace
}  // namespace mcharge::graph
