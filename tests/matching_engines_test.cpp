// Differential tests for the geometric matching engines.
//
// The sparse price-and-repair engine and the dense blossom engine solve
// the SAME perturbed integer objective (matching/quantize.h), whose
// optimum is generically unique — so the two engines must return the
// IDENTICAL matching (not merely equal weight) on every instance:
// random geometric, clustered, collinear, duplicate-point, and the real
// odd-vertex sets Christofides produces at paper scales. Where the
// instance is small enough, both are also cross-checked against the
// bitmask DP oracle on the real-valued objective, including a layout whose
// final vertex duals go negative. Finally, full Appro
// plans must be byte-identical under engine = dense vs sparse, across
// every SIMD backend this machine supports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/appro.h"
#include "geometry/field.h"
#include "geometry/point.h"
#include "graph/mst.h"
#include "matching/blossom.h"
#include "matching/blossom_core.h"
#include "matching/matching.h"
#include "matching/quantize.h"
#include "model/charging_problem.h"
#include "schedule/scheduler.h"
#include "util/rng.h"
#include "util/simd.h"

#include "knn_oracle.h"
#include "matching_oracle.h"
#include "simd_backends.h"

namespace mcharge::matching {
namespace {

using oracle::exact_min_weight_matching;
using oracle::kOracleLimit;
using oracle::matching_weight;
using oracle::WeightFn;

WeightFn euclidean(const std::vector<geom::Point>& pts) {
  return [&pts](std::uint32_t a, std::uint32_t b) {
    return geom::distance(pts[a], pts[b]);
  };
}

/// Asserts the full engine contract on one instance: both blossom engines
/// perfect and identical; DP agreement on the real objective when small.
void expect_engines_agree(const std::vector<geom::Point>& pts) {
  const std::size_t n = pts.size();
  const auto w = euclidean(pts);
  const Matching dense = dense_blossom_euclidean_matching(pts);
  ASSERT_TRUE(is_perfect_matching(n, dense)) << "n=" << n;
  const Matching sparse = sparse_blossom_euclidean_matching(pts);
  ASSERT_TRUE(is_perfect_matching(n, sparse)) << "n=" << n;
  EXPECT_EQ(dense, sparse) << "n=" << n;
  EXPECT_EQ(matching_weight(dense, w), matching_weight(sparse, w));
  if (n <= kOracleLimit && n > 0) {
    const Matching dp = exact_min_weight_matching(n, w);
    // The DP optimizes the unquantized objective; agreement is up to the
    // quantizer's resolution (>= 2^20 steps over the bbox diagonal).
    const double diag = 150.0;
    const double tol =
        static_cast<double>(n) * diag / (1 << 20) + 1e-9;
    EXPECT_NEAR(matching_weight(dp, w), matching_weight(sparse, w), tol)
        << "n=" << n;
  }
}

class EnginesRandomGeometric : public ::testing::TestWithParam<int> {};

TEST_P(EnginesRandomGeometric, SparseEqualsDense) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 11);
  const std::size_t n = 2 * (1 + rng.below(90));  // 2..180
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  expect_engines_agree(pts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginesRandomGeometric,
                         ::testing::Range(0, 20));

class EnginesClustered : public ::testing::TestWithParam<int> {};

TEST_P(EnginesClustered, SparseEqualsDense) {
  // Tight clusters: many near-ties, heavy blossom formation, and a
  // candidate graph whose k-NN edges all stay inside one cluster — the
  // pricing pass must discover the inter-cluster edges itself.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7877 + 3);
  std::vector<geom::Point> pts;
  const int clusters = 3 + static_cast<int>(rng.below(3));
  for (int c = 0; c < clusters; ++c) {
    const geom::Point center{rng.uniform(0.0, 100.0),
                             rng.uniform(0.0, 100.0)};
    const int size = 3 + static_cast<int>(rng.below(8));
    for (int i = 0; i < size; ++i) {
      pts.push_back({center.x + rng.uniform(-0.5, 0.5),
                     center.y + rng.uniform(-0.5, 0.5)});
    }
  }
  if (pts.size() % 2 == 1) pts.push_back({50.0, 50.0});
  expect_engines_agree(pts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginesClustered, ::testing::Range(0, 12));

TEST(EnginesDegenerate, CollinearPoints) {
  for (const std::size_t n : {std::size_t{6}, std::size_t{16},
                              std::size_t{60}}) {
    std::vector<geom::Point> pts;
    Rng rng(n * 31 + 7);
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(0.0, 100.0), 25.0});
    }
    expect_engines_agree(pts);
  }
}

TEST(EnginesDegenerate, EvenlySpacedLine) {
  std::vector<geom::Point> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({static_cast<double>(i), 0.0});
  }
  expect_engines_agree(pts);
}

TEST(EnginesDegenerate, DuplicatePoints) {
  // Coincident points: every pairing has the same primary cost, so the
  // tie perturbation alone decides the optimum — both engines must pick
  // the same one.
  Rng rng(97);
  std::vector<geom::Point> pts;
  for (int site = 0; site < 5; ++site) {
    const geom::Point p{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    for (int copy = 0; copy < 4; ++copy) pts.push_back(p);
  }
  expect_engines_agree(pts);
}

TEST(EnginesDegenerate, AllPointsIdentical) {
  const std::vector<geom::Point> pts(12, geom::Point{4.0, 4.0});
  expect_engines_agree(pts);
}

TEST(EnginesDegenerate, TinyInstances) {
  expect_engines_agree({});
  expect_engines_agree({{1.0, 2.0}, {3.0, 4.0}});
  expect_engines_agree({{0, 0}, {0, 1}, {100, 0}, {100, 1}});
}

/// Odd-degree MST vertices of depot + `sites` — the exact population the
/// Christofides call site feeds the matching.
std::vector<geom::Point> odd_mst_vertices(std::vector<geom::Point> pts) {
  pts.insert(pts.begin(), geom::Point{50.0, 50.0});  // depot as vertex 0
  const auto mst = graph::euclidean_mst(pts);
  std::vector<std::size_t> degree(pts.size(), 0);
  for (const auto& e : mst) {
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<geom::Point> odd;
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (degree[v] % 2 == 1) odd.push_back(pts[v]);
  }
  return odd;
}

/// Odd-degree MST vertices of a uniform instance.
std::vector<geom::Point> christofides_odd_set(std::size_t sites,
                                              std::uint64_t seed) {
  Rng rng(seed);
  return odd_mst_vertices(geom::uniform_field(sites, 100.0, 100.0, rng));
}

TEST(EnginesChristofides, RealOddVertexSetsAtPaperScales) {
  // 300- and 1200-sensor rounds produce odd sets of a few hundred
  // vertices — the exact population the default engine must handle.
  for (const std::size_t sites : {std::size_t{300}, std::size_t{1200}}) {
    const auto odd = christofides_odd_set(sites, sites * 13 + 1);
    ASSERT_EQ(odd.size() % 2, 0u);
    ASSERT_GE(odd.size(), 32u);
    expect_engines_agree(odd);
  }
}

TEST(EnginesChristofides, AutoDenseSparseAgreeOnSmallRounds) {
  // Appro's rounds of 2..60 sites, uniform and clustered: every odd set
  // sits below kSparseCrossover, so kAuto runs the dense blossom, and it
  // must return the forced dense and sparse engines' matching exactly.
  MatchingOptions dense;
  dense.engine = MatchingEngine::kDenseBlossom;
  MatchingOptions sparse;
  sparse.engine = MatchingEngine::kSparseBlossom;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (std::size_t m = 2; m <= 60; ++m) {
      Rng rng(seed * 1000 + m);
      for (const bool clustered : {false, true}) {
        const auto odd = odd_mst_vertices(
            clustered ? geom::clustered_field(m, 100.0, 100.0, 3, 5.0, rng)
                      : geom::uniform_field(m, 100.0, 100.0, rng));
        ASSERT_EQ(odd.size() % 2, 0u);
        ASSERT_LT(odd.size(), kSparseCrossover);
        const Matching auto_m = min_weight_euclidean_matching(odd);
        ASSERT_TRUE(is_perfect_matching(odd.size(), auto_m));
        EXPECT_EQ(auto_m, min_weight_euclidean_matching(odd, dense))
            << "seed=" << seed << " m=" << m << " clustered=" << clustered;
        EXPECT_EQ(auto_m, min_weight_euclidean_matching(odd, sparse))
            << "seed=" << seed << " m=" << m << " clustered=" << clustered;
      }
    }
  }
}

TEST(EnginesDispatch, AutoMatchesForcedEngines) {
  MatchingOptions force_dense;
  force_dense.engine = MatchingEngine::kDenseBlossom;
  Rng rng(55);
  const auto small = geom::uniform_field(12, 100.0, 100.0, rng);
  const auto w_small = euclidean(small);
  // kAuto below kSparseCrossover routes to the dense blossom, small sets
  // included: the same matching, and the DP oracle's optimum up to the
  // quantizer's resolution.
  const auto auto_small = min_weight_euclidean_matching(small);
  EXPECT_EQ(auto_small, min_weight_euclidean_matching(small, force_dense));
  EXPECT_NEAR(matching_weight(auto_small, w_small),
              matching_weight(exact_min_weight_matching(12, w_small), w_small),
              12 * 150.0 / static_cast<double>(kBlossomResolution) + 1e-9);

  const auto mid = geom::uniform_field(120, 100.0, 100.0, rng);
  // Up to kBlossomLimit kAuto runs a blossom engine (dense below
  // kSparseCrossover, sparse from it); either way the result must equal
  // the sparse engine's, since the engines are identical.
  const auto auto_mid = min_weight_euclidean_matching(mid);
  EXPECT_EQ(auto_mid, sparse_blossom_euclidean_matching(mid));
  const auto big = geom::uniform_field(
      2 * kSparseCrossover, 100.0, 100.0, rng);
  EXPECT_EQ(min_weight_euclidean_matching(big),
            sparse_blossom_euclidean_matching(big));
  EXPECT_EQ(auto_mid, min_weight_euclidean_matching(mid, force_dense));
  MatchingOptions local;
  local.engine = MatchingEngine::kLocalSearch;
  const auto heuristic = min_weight_euclidean_matching(mid, local);
  EXPECT_TRUE(is_perfect_matching(120, heuristic));
  const auto w_mid = euclidean(mid);
  EXPECT_LE(matching_weight(auto_mid, w_mid),
            matching_weight(heuristic, w_mid) + 1e-9);
}

TEST(EnginesDispatch, AutoMatchesForcedEnginesAroundCrossover) {
  // Every even size from 32 to 128 brackets kSparseCrossover, so kAuto
  // runs each engine on some of them; on every one it must return the
  // forced dense and sparse engines' matching.
  static_assert(kSparseCrossover > 32 && kSparseCrossover <= 128);
  MatchingOptions dense;
  dense.engine = MatchingEngine::kDenseBlossom;
  MatchingOptions sparse;
  sparse.engine = MatchingEngine::kSparseBlossom;
  Rng rng(2027);
  for (std::size_t n = 32; n <= 128; n += 2) {
    for (const bool clustered : {false, true}) {
      const auto pts =
          clustered ? geom::clustered_field(n, 100.0, 100.0, 3, 5.0, rng)
                    : geom::uniform_field(n, 100.0, 100.0, rng);
      const Matching auto_m = min_weight_euclidean_matching(pts);
      ASSERT_TRUE(is_perfect_matching(n, auto_m));
      EXPECT_EQ(auto_m, min_weight_euclidean_matching(pts, dense))
          << "n=" << n << " clustered=" << clustered;
      EXPECT_EQ(auto_m, min_weight_euclidean_matching(pts, sparse))
          << "n=" << n << " clustered=" << clustered;
    }
  }
}

TEST(EnginesDispatch, SparseKnnInsensitive) {
  // The repair loop certifies optimality regardless of how sparse the
  // initial candidate graph is.
  Rng rng(91);
  const auto pts = geom::uniform_field(150, 100.0, 100.0, rng);
  const auto reference = sparse_blossom_euclidean_matching(pts, 8);
  for (const int knn : {1, 2, 5, 16}) {
    EXPECT_EQ(reference, sparse_blossom_euclidean_matching(pts, knn))
        << "knn=" << knn;
  }
}

class EnginesWarmStart : public ::testing::TestWithParam<int> {};

TEST_P(EnginesWarmStart, ManyPricingRoundsStayExact) {
  // Starved candidate graphs (knn = 1..2) force the maximum number of
  // price-and-repair rounds, so every round past the first re-solves
  // from warm duals and a warm matching. Each re-solve stresses the
  // warm-start entry invariants (feasibility bump, parity rounding,
  // tightness unmatch) on duals the solver itself exported — clustered
  // layouts add near-ties and blossom-heavy duals on top. The dense
  // engine is the oracle: identical matching, not merely equal weight.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9697 + 29);
  std::vector<geom::Point> pts;
  if (GetParam() % 2 == 0) {
    pts = geom::uniform_field(120 + 2 * rng.below(31), 100.0, 100.0, rng);
  } else {
    const int clusters = 4 + static_cast<int>(rng.below(3));
    for (int c = 0; c < clusters; ++c) {
      const geom::Point center{rng.uniform(0.0, 100.0),
                               rng.uniform(0.0, 100.0)};
      const int size = 10 + static_cast<int>(rng.below(12));
      for (int i = 0; i < size; ++i) {
        pts.push_back({center.x + rng.uniform(-0.8, 0.8),
                       center.y + rng.uniform(-0.8, 0.8)});
      }
    }
    if (pts.size() % 2 == 1) pts.push_back({50.0, 50.0});
  }
  const Matching dense = dense_blossom_euclidean_matching(pts);
  for (const int knn : {1, 2}) {
    EXPECT_EQ(dense, sparse_blossom_euclidean_matching(pts, knn))
        << "knn=" << knn << " n=" << pts.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginesWarmStart, ::testing::Range(0, 32));

TEST(EnginesNegativeDuals, OutliersDriveLabelsBelowZero) {
  // Vertex duals are unrestricted in sign under perfect-matching
  // termination. Two tight clusters of odd and even size sit at the
  // bottom corners and one outlier at the top: the outlier must match
  // into the odd cluster over a light edge while that cluster's labels
  // sit near half the heaviest weight, so the jump start's second pass
  // already puts its label below zero and the optimum keeps it there.
  // Dense, sparse and the DP must still agree.
  Rng rng(613);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 8; ++i) {
    pts.push_back({rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)});
  }
  for (int i = 0; i < 7; ++i) {
    pts.push_back({rng.uniform(99.5, 100.0), rng.uniform(0.0, 0.5)});
  }
  pts.push_back({50.0, 100.0});
  ASSERT_LE(pts.size(), kOracleLimit);
  const int n = static_cast<int>(pts.size());

  const detail::BlossomQuantizer qz = detail::make_point_quantizer(pts);
  detail::BlossomArena& arena = detail::thread_arena();
  detail::DenseStore store(n, arena);
  std::int64_t w2_max = 0;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const std::int64_t w2 =
          2 * qz.profit(geom::distance(pts[u], pts[v]),
                        static_cast<std::uint32_t>(u),
                        static_cast<std::uint32_t>(v));
      store.set2(u + 1, v + 1, w2);
      w2_max = std::max(w2_max, w2);
    }
  }
  detail::BlossomCore<detail::DenseStore> core(n, store, arena);
  core.solve();
  std::int64_t min_dual = 0;
  for (int v = 1; v <= n; ++v) min_dual = std::min(min_dual, core.dual2(v));
  EXPECT_LT(min_dual, 0) << "no label went negative; the path is not run";
  EXPECT_GE(min_dual, w2_max - detail::kLabelSpan2);
  expect_engines_agree(pts);
  for (const int knn : {1, 2}) {
    EXPECT_EQ(dense_blossom_euclidean_matching(pts),
              sparse_blossom_euclidean_matching(pts, knn))
        << "knn=" << knn;
  }
}

// ---------- candidate graph ----------

TEST(SparseCandidates, BuilderMatchesFrozenGridKnn) {
  // The sweep builder must emit exactly the frozen grid builder's edge
  // list: uniform and clustered fields, a vertical line (every x ties,
  // so the sweep cannot prune), duplicate and all-identical points.
  std::vector<std::pair<const char*, std::vector<geom::Point>>> inputs;
  for (const std::size_t n : {2, 4, 64, 1024, 4096}) {
    Rng rng(n * 31 + 7);
    inputs.emplace_back("uniform", geom::uniform_field(n, 100.0, 100.0, rng));
    inputs.emplace_back("clustered",
                        geom::clustered_field(n, 100.0, 100.0, 4, 3.0, rng));
    std::vector<geom::Point> line;
    for (std::size_t i = 0; i < n; ++i) {
      line.push_back({42.5, rng.uniform(0.0, 100.0)});
    }
    inputs.emplace_back("vertical line", std::move(line));
    if (n <= 1024) {
      inputs.emplace_back("identical",
                          std::vector<geom::Point>(n, geom::Point{3.0, 4.0}));
    }
    if (n >= 4) {
      auto dup = geom::uniform_field(n / 2, 100.0, 100.0, rng);
      const auto copy = dup;
      dup.insert(dup.end(), copy.rbegin(), copy.rend());
      inputs.emplace_back("duplicates", std::move(dup));
    }
  }
  for (const auto& [name, pts] : inputs) {
    for (const int knn : {1, 8, 16}) {
      EXPECT_EQ(detail::knn_candidate_edges(pts, knn),
                oracle::grid_knn_edges(pts, knn))
          << name << " n=" << pts.size() << " knn=" << knn;
    }
  }
}

// ---------- full-plan byte identity ----------

/// Flat byte image of a plan (tour sites length-prefixed per tour).
std::vector<std::uint64_t> serialize(const sched::ChargingPlan& plan) {
  std::vector<std::uint64_t> out;
  out.push_back(plan.tours.size());
  for (const auto& tour : plan.tours) {
    out.push_back(tour.size());
    for (const auto v : tour) out.push_back(v);
  }
  return out;
}

TEST(EnginesPlan, ByteIdenticalAcrossEnginesAndBackends) {
  Rng rng(4242);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < 400; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(3456.0, 5400.0));
  }
  const model::ChargingProblem problem(std::move(pts), std::move(deficits),
                                       {50.0, 50.0}, 2.7, 1.0, 3);

  core::ApproOptions dense_opts;
  dense_opts.tour.matching.engine = MatchingEngine::kDenseBlossom;
  core::ApproOptions sparse_opts;
  sparse_opts.tour.matching.engine = MatchingEngine::kSparseBlossom;

  std::vector<std::uint64_t> reference;
  {
    BackendGuard guard(simd::Backend::kScalar);
    reference = serialize(core::ApproScheduler(dense_opts).plan(problem));
  }
  for (const simd::Backend b : supported_backends()) {
    BackendGuard guard(b);
    const auto dense_plan =
        serialize(core::ApproScheduler(dense_opts).plan(problem));
    const auto sparse_plan =
        serialize(core::ApproScheduler(sparse_opts).plan(problem));
    EXPECT_EQ(reference, dense_plan) << "backend=" << static_cast<int>(b);
    EXPECT_EQ(reference, sparse_plan) << "backend=" << static_cast<int>(b);
  }
}

}  // namespace
}  // namespace mcharge::matching
