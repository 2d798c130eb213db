// Tests for minimum-weight perfect matching: the DP oracle vs brute force,
// local-search quality vs the exact optimum on small instances, and the
// dense blossom core on arbitrary weights — including the tie-heavy and
// degenerate inputs that stress its jump start (tight initial duals and a
// greedy tight matching), the jump start's phase-entry invariants, and the
// cold restart below the int64 label floor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "geometry/field.h"
#include "geometry/point.h"
#include "matching/blossom.h"
#include "matching/blossom_core.h"
#include "matching/matching.h"
#include "matching/quantize.h"
#include "obs/obs.h"
#include "util/rng.h"

#include "matching_oracle.h"

namespace mcharge::matching {
namespace {

using oracle::exact_min_weight_matching;
using oracle::kOracleLimit;
using oracle::matching_weight;
using oracle::WeightFn;

/// The dense blossom core on an arbitrary complete weighted graph (the
/// library only feeds it Euclidean weights). Costs are quantized onto
/// [1, kBlossomResolution + 1] and negated into strictly positive
/// "profits", so the maximum-profit matching is a minimum-cost perfect
/// one. Requires even n.
Matching blossom_min_weight_matching(std::size_t n, const WeightFn& weight) {
  if (n == 0) return {};
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      lo = std::min(lo, weight(u, v));
      hi = std::max(hi, weight(u, v));
    }
  }
  const double scale =
      static_cast<double>(kBlossomResolution) / (hi > lo ? hi - lo : 1.0);
  detail::BlossomArena& arena = detail::thread_arena();
  detail::DenseStore store(static_cast<int>(n), arena);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      const auto cost =
          static_cast<std::int64_t>(std::llround((weight(u, v) - lo) * scale));
      store.set2(static_cast<int>(u) + 1, static_cast<int>(v) + 1,
                 2 * (kBlossomResolution + 1 - cost));
    }
  }
  detail::BlossomCore<detail::DenseStore> core(static_cast<int>(n), store,
                                              arena);
  core.solve();
  Matching result;
  for (std::uint32_t v = 0; v < n; ++v) {
    const int mate = core.partner(static_cast<int>(v) + 1);
    if (mate >= 1 && v < static_cast<std::uint32_t>(mate - 1)) {
      result.emplace_back(v, static_cast<std::uint32_t>(mate - 1));
    }
  }
  return result;
}

/// Reference: minimum-weight perfect matching by recursive enumeration.
double brute_force_weight(std::size_t n, const WeightFn& w) {
  std::vector<char> used(n, 0);
  double best = std::numeric_limits<double>::infinity();
  // Recursive lambda via explicit stack of choices.
  std::function<void(double)> rec = [&](double acc) {
    std::size_t a = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!used[i]) {
        a = i;
        break;
      }
    }
    if (a == n) {
      best = std::min(best, acc);
      return;
    }
    used[a] = 1;
    for (std::size_t b = a + 1; b < n; ++b) {
      if (used[b]) continue;
      used[b] = 1;
      rec(acc + w(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b)));
      used[b] = 0;
    }
    used[a] = 0;
  };
  rec(0.0);
  return best;
}

WeightFn euclidean(const std::vector<geom::Point>& pts) {
  return [&pts](std::uint32_t a, std::uint32_t b) {
    return geom::distance(pts[a], pts[b]);
  };
}

TEST(ExactMatching, EmptyAndPair) {
  const auto none = exact_min_weight_matching(0, [](auto, auto) { return 1.0; });
  EXPECT_TRUE(none.empty());
  const auto pair = exact_min_weight_matching(2, [](auto, auto) { return 3.0; });
  ASSERT_EQ(pair.size(), 1u);
  EXPECT_TRUE(is_perfect_matching(2, pair));
}

TEST(ExactMatching, FourPointsChoosesCheapPairs) {
  // Two clusters far apart: {0,1} near, {2,3} near.
  const std::vector<geom::Point> pts{{0, 0}, {0, 1}, {100, 0}, {100, 1}};
  const auto m = exact_min_weight_matching(4, euclidean(pts));
  EXPECT_TRUE(is_perfect_matching(4, m));
  EXPECT_NEAR(matching_weight(m, euclidean(pts)), 2.0, 1e-12);
}

class ExactVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(ExactVsBrute, SameOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::size_t n = 2 * (1 + rng.below(5));  // 2..10
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  const auto w = euclidean(pts);
  const auto m = exact_min_weight_matching(n, w);
  EXPECT_TRUE(is_perfect_matching(n, m));
  EXPECT_NEAR(matching_weight(m, w), brute_force_weight(n, w), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVsBrute, ::testing::Range(0, 12));

class LocalSearchQuality : public ::testing::TestWithParam<int> {};

TEST_P(LocalSearchQuality, PerfectAndNearOptimal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const std::size_t n = 2 * (2 + rng.below(6));  // 4..14
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  const auto w = euclidean(pts);
  const auto m = local_search_matching(pts);
  ASSERT_TRUE(is_perfect_matching(n, m));
  const double opt = brute_force_weight(n, w);
  // 2-exchange local optimum on Euclidean inputs is empirically within a
  // small factor of optimal; assert a generous 1.25 bound.
  EXPECT_LE(matching_weight(m, w), 1.25 * opt + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalSearchQuality, ::testing::Range(0, 12));

TEST(LocalSearchMatching, LargeInstanceIsPerfect) {
  Rng rng(5);
  const std::size_t n = 300;
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  const auto m = local_search_matching(pts);
  EXPECT_TRUE(is_perfect_matching(n, m));
}

TEST(Dispatch, UsesExactBelowLimit) {
  // Below kSparseCrossover kAuto runs the dense blossom at every n: bit
  // for bit the forced engine's matching, and within the quantizer's
  // tolerance of the DP oracle's real-valued optimum.
  MatchingOptions force_dense;
  force_dense.engine = MatchingEngine::kDenseBlossom;
  for (std::size_t n = 2; n <= kOracleLimit; n += 2) {
    Rng rng(9 + n);
    const auto pts = geom::uniform_field(n, 50.0, 50.0, rng);
    const auto w = euclidean(pts);
    const auto dispatched = min_weight_euclidean_matching(pts);
    EXPECT_EQ(dispatched, min_weight_euclidean_matching(pts, force_dense))
        << "n=" << n;
    const double tolerance =
        n * 75.0 / static_cast<double>(kBlossomResolution) + 1e-9;
    EXPECT_NEAR(matching_weight(dispatched, w),
                matching_weight(exact_min_weight_matching(n, w), w), tolerance)
        << "n=" << n;
  }
}

// ---------- blossom ----------

TEST(Blossom, EmptyAndPair) {
  EXPECT_TRUE(
      blossom_min_weight_matching(0, [](auto, auto) { return 1.0; }).empty());
  const auto pair =
      blossom_min_weight_matching(2, [](auto, auto) { return 3.0; });
  EXPECT_TRUE(is_perfect_matching(2, pair));
}

TEST(Blossom, FourPointsChoosesCheapPairs) {
  const std::vector<geom::Point> pts{{0, 0}, {0, 1}, {100, 0}, {100, 1}};
  const auto m = blossom_min_weight_matching(4, euclidean(pts));
  EXPECT_TRUE(is_perfect_matching(4, m));
  EXPECT_NEAR(matching_weight(m, euclidean(pts)), 2.0, 1e-3);
}

class BlossomVsExactDp : public ::testing::TestWithParam<int> {};

TEST_P(BlossomVsExactDp, GeometricInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 50021 + 9);
  const std::size_t n = 2 * (1 + rng.below(8));  // 2..16
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  const auto w = euclidean(pts);
  const auto blossom = blossom_min_weight_matching(n, w);
  ASSERT_TRUE(is_perfect_matching(n, blossom));
  const auto exact = exact_min_weight_matching(n, w);
  // Quantization can cost at most (range / resolution) per pair.
  const double tolerance =
      n * 150.0 / static_cast<double>(kBlossomResolution) + 1e-9;
  EXPECT_NEAR(matching_weight(blossom, w), matching_weight(exact, w),
              tolerance);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomVsExactDp, ::testing::Range(0, 30));

class BlossomVsExactDpAdversarial : public ::testing::TestWithParam<int> {};

TEST_P(BlossomVsExactDpAdversarial, RandomIntegerWeights) {
  // Small random integer weights produce many ties and force blossom
  // formation far more often than geometric inputs do.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104651 + 17);
  const std::size_t n = 2 * (2 + rng.below(6));  // 4..14
  std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      w[u][v] = w[v][u] = static_cast<double>(rng.below(8));
    }
  }
  const WeightFn fn = [&](std::uint32_t a, std::uint32_t b) {
    return w[a][b];
  };
  const auto blossom = blossom_min_weight_matching(n, fn);
  ASSERT_TRUE(is_perfect_matching(n, blossom));
  const auto exact = exact_min_weight_matching(n, fn);
  const double tolerance =
      n * 8.0 / static_cast<double>(kBlossomResolution) + 1e-9;
  EXPECT_NEAR(matching_weight(blossom, fn), matching_weight(exact, fn),
              tolerance);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomVsExactDpAdversarial,
                         ::testing::Range(0, 30));

TEST(Blossom, LargeGeometricInstanceBeatsLocalSearchOrTies) {
  Rng rng(77);
  const std::size_t n = 200;
  const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
  const auto w = euclidean(pts);
  const auto exact = blossom_min_weight_matching(n, w);
  ASSERT_TRUE(is_perfect_matching(n, exact));
  const auto heuristic = local_search_matching(pts);
  EXPECT_LE(matching_weight(exact, w),
            matching_weight(heuristic, w) + 1e-3);
}

TEST(Blossom, AtTheDpFrontier) {
  // n = 14 and kOracleLimit: the largest sizes the DP oracle can certify
  // (it asserts n <= kOracleLimit).
  for (std::size_t n : {std::size_t{14}, kOracleLimit}) {
    Rng rng(n * 977 + 5);
    const auto pts = geom::uniform_field(n, 100.0, 100.0, rng);
    const auto w = euclidean(pts);
    const auto blossom = blossom_min_weight_matching(n, w);
    const auto exact = exact_min_weight_matching(n, w);
    const double tolerance =
        n * 150.0 / static_cast<double>(kBlossomResolution) + 1e-9;
    EXPECT_NEAR(matching_weight(blossom, w), matching_weight(exact, w),
                tolerance);
  }
}

TEST(Blossom, ClusteredPointsWithManyTies) {
  // Points in tight clusters create near-ties and dense blossom structure.
  Rng rng(31);
  std::vector<geom::Point> pts;
  for (int c = 0; c < 4; ++c) {
    const geom::Point center{rng.uniform(0.0, 100.0),
                             rng.uniform(0.0, 100.0)};
    for (int i = 0; i < 4; ++i) {
      pts.push_back({center.x + rng.uniform(-0.5, 0.5),
                     center.y + rng.uniform(-0.5, 0.5)});
    }
  }
  const auto w = euclidean(pts);
  const auto blossom = blossom_min_weight_matching(pts.size(), w);
  const auto exact = exact_min_weight_matching(pts.size(), w);
  EXPECT_NEAR(matching_weight(blossom, w), matching_weight(exact, w), 1e-2);
}

TEST(Blossom, AllEqualWeights) {
  const auto m =
      blossom_min_weight_matching(10, [](auto, auto) { return 5.0; });
  EXPECT_TRUE(is_perfect_matching(10, m));
}

/// Weights of an arbitrary complete graph, indexed [u][v].
using WeightTable = std::vector<std::vector<double>>;

/// The dense blossom core against the exact DP on one weight table.
void expect_blossom_matches_dp(const WeightTable& w) {
  const std::size_t n = w.size();
  const WeightFn fn = [&](std::uint32_t a, std::uint32_t b) {
    return w[a][b];
  };
  double hi = 0.0;
  for (const auto& row : w) {
    for (const double x : row) hi = std::max(hi, x);
  }
  const auto blossom = blossom_min_weight_matching(n, fn);
  ASSERT_TRUE(is_perfect_matching(n, blossom)) << "n=" << n;
  const auto exact = exact_min_weight_matching(n, fn);
  const double tolerance =
      static_cast<double>(n) * hi / static_cast<double>(kBlossomResolution) +
      1e-9;
  EXPECT_NEAR(matching_weight(blossom, fn), matching_weight(exact, fn),
              tolerance)
      << "n=" << n;
}

WeightTable euclidean_table(const std::vector<geom::Point>& pts) {
  WeightTable w(pts.size(), std::vector<double>(pts.size(), 0.0));
  for (std::size_t u = 0; u < pts.size(); ++u) {
    for (std::size_t v = 0; v < pts.size(); ++v) {
      w[u][v] = geom::distance(pts[u], pts[v]);
    }
  }
  return w;
}

class BlossomJumpStartTies : public ::testing::TestWithParam<int> {};

TEST_P(BlossomJumpStartTies, WeightsOneToThree) {
  // Weights in {1, 2, 3}: most labels start equal, the greedy tight
  // matching sees long runs of tied edges, and the jump start's guesses
  // are wrong as often as they are right.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7433 + 5);
  const std::size_t n = 2 * (2 + rng.below(7));  // 4..16
  WeightTable w(n, std::vector<double>(n, 0.0));
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      w[u][v] = w[v][u] = static_cast<double>(1 + rng.below(3));
    }
  }
  expect_blossom_matches_dp(w);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomJumpStartTies, ::testing::Range(0, 40));

TEST(BlossomJumpStart, AllEqualWeightsEverySize) {
  for (std::size_t n = 2; n <= kOracleLimit; n += 2) {
    expect_blossom_matches_dp(WeightTable(n, std::vector<double>(n, 5.0)));
  }
}

TEST(BlossomJumpStart, RegularGrids) {
  // Unit grids: every interior point has four mutual nearest neighbors,
  // so the tight graph after the jump start is the whole grid lattice.
  for (const auto& [rows, cols] :
       {std::pair{2, 2}, std::pair{2, 7}, std::pair{3, 4}, std::pair{4, 4},
        std::pair{2, 8}, std::pair{1, 16}}) {
    std::vector<geom::Point> pts;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        pts.push_back({static_cast<double>(c), static_cast<double>(r)});
      }
    }
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    expect_blossom_matches_dp(euclidean_table(pts));
  }
}

TEST(BlossomJumpStart, DuplicatePoints) {
  // Coincident points give zero-cost pairs (the heaviest profits) that
  // tie with each other across every copy of a site.
  Rng rng(211);
  for (const int copies : {2, 3, 4, 5}) {
    std::vector<geom::Point> pts;
    while (pts.size() + static_cast<std::size_t>(copies) <= kOracleLimit) {
      const geom::Point p{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
      for (int c = 0; c < copies; ++c) pts.push_back(p);
    }
    if (pts.size() % 2 == 1) pts.pop_back();
    SCOPED_TRACE("copies=" + std::to_string(copies));
    expect_blossom_matches_dp(euclidean_table(pts));
  }
}

/// Asserts the phase-entry invariants on the core's state right after
/// jump_start(): even labels, every store edge feasible, every matched
/// pair a tight store edge, mates involutive.
template <class Store>
void expect_jump_start_invariants(int n, const Store& store) {
  detail::BlossomCore<Store> core(n, store, detail::thread_arena());
  core.jump_start();
  int matched = 0;
  for (int u = 1; u <= n; ++u) {
    EXPECT_EQ(core.dual2(u) % 2, 0) << "u=" << u;
    store.for_neighbors(u, [&](int v, std::int64_t w) {
      EXPECT_GE(core.dual2(u) + core.dual2(v), w) << u << "-" << v;
      return true;
    });
    const int m = core.partner(u);
    if (m == 0) continue;
    ++matched;
    ASSERT_GE(m, 1);
    ASSERT_LE(m, n);
    EXPECT_EQ(core.partner(m), u);
    EXPECT_GT(store.weight(u, m), 0);
    EXPECT_EQ(core.dual2(u) + core.dual2(m), store.weight(u, m));
  }
  // The greedy tight matching is what makes the start a jump start.
  EXPECT_GT(matched, 0);
}

class BlossomJumpStartInvariants : public ::testing::TestWithParam<int> {};

TEST_P(BlossomJumpStartInvariants, DenseAndSparseStores) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 3571 + 13);
  const int n = 2 * (4 + static_cast<int>(rng.below(60)));  // 8..126
  const auto pts = geom::uniform_field(static_cast<std::size_t>(n), 100.0,
                                       100.0, rng);
  const detail::BlossomQuantizer qz = detail::make_point_quantizer(pts);
  const auto profit2 = [&](int u, int v) {
    return 2 * qz.profit(geom::distance(pts[u], pts[v]),
                         static_cast<std::uint32_t>(u),
                         static_cast<std::uint32_t>(v));
  };
  {
    detail::DenseStore store(n, detail::thread_arena());
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) store.set2(u + 1, v + 1, profit2(u, v));
    }
    expect_jump_start_invariants(n, store);
  }
  {
    // Random sparse graph over a backbone pairing; odd degrees and
    // missing edges exercise the bump over partial rows.
    std::vector<std::pair<int, int>> edges;
    std::vector<std::int64_t> w2;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if ((v == u + 1 && u % 2 == 0) || rng.below(8) == 0) {
          edges.emplace_back(u + 1, v + 1);
          w2.push_back(profit2(u, v));
        }
      }
    }
    const detail::SparseStore store(n, edges, w2);
    expect_jump_start_invariants(n, store);
  }
  {
    // Heavy ties: doubled weights in {2, 4, 6}.
    detail::DenseStore store(n, detail::thread_arena());
    for (int u = 1; u <= n; ++u) {
      for (int v = u + 1; v <= n; ++v) {
        store.set2(u, v, 2 * (1 + static_cast<std::int64_t>(rng.below(3))));
      }
    }
    expect_jump_start_invariants(n, store);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomJumpStartInvariants,
                         ::testing::Range(0, 12));

TEST(SparseStore, CountingFillMatchesTupleSort) {
  // The CSR rows and weights equal those of sorting every directed
  // (u, v, w) tuple, the construction the counting fill replaced.
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 5);
    const int n = 1 + static_cast<int>(rng.below(90));
    const std::uint64_t density = 1 + rng.below(12);
    std::vector<std::pair<int, int>> edges;
    std::vector<std::int64_t> w2;
    for (int u = 1; u <= n; ++u) {
      for (int v = u + 1; v <= n; ++v) {
        if (rng.below(density) == 0) {
          edges.emplace_back(u, v);
          w2.push_back(2 * static_cast<std::int64_t>(1 + rng.below(1000)));
        }
      }
    }
    std::vector<std::tuple<int, int, std::int64_t>> dir;
    for (std::size_t k = 0; k < edges.size(); ++k) {
      dir.emplace_back(edges[k].first, edges[k].second, w2[k]);
      dir.emplace_back(edges[k].second, edges[k].first, w2[k]);
    }
    std::sort(dir.begin(), dir.end());
    const detail::SparseStore store(n, edges, w2);
    std::vector<std::tuple<int, int, std::int64_t>> got;
    for (int u = 1; u <= n; ++u) {
      store.for_neighbors(u, [&](int v, std::int64_t w) {
        got.emplace_back(u, v, w);
        EXPECT_EQ(store.weight(u, v), w);
        return true;
      });
    }
    EXPECT_EQ(got, dir) << "seed " << seed;
  }
}

TEST(SparseStoreDeathTest, UnsortedEdgesAbort) {
  const std::vector<std::int64_t> w2{2, 2};
  EXPECT_DEATH(detail::SparseStore(3, {{2, 3}, {1, 2}}, w2),
               "mcharge assertion failed");
  EXPECT_DEATH(detail::SparseStore(3, {{2, 1}, {2, 3}}, w2),
               "mcharge assertion failed");
}

TEST(BlossomJumpStart, LabelBelowFloorRestartsCold) {
  // A warm entry whose last vertex sits under the label floor
  // w2_max - kLabelSpan2 (the bump pass raises only the lower endpoint of
  // an edge, so it stays there) must abort before any phase and restart
  // cold, with the same optimum as the jump start.
  Rng rng(409);
  const int n = 40;
  const auto pts =
      geom::uniform_field(static_cast<std::size_t>(n), 100.0, 100.0, rng);
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
  std::vector<std::int32_t> reference(n);
  {
    detail::BlossomCore<detail::DenseStore> core(n, store, arena);
    core.solve();
    for (int u = 1; u <= n; ++u) reference[u - 1] = core.partner(u);
  }
  std::vector<std::int64_t> lab2(n, 0);
  lab2[n - 1] = w2_max - detail::kLabelSpan2 - 2;
  const std::vector<std::int32_t> mate(n, 0);
#ifndef MCHARGE_NO_OBS
  obs::reset();
  const obs::EnabledScope scope(true);
#endif
  detail::BlossomCore<detail::DenseStore> core(n, store, arena);
  core.solve_from(lab2, mate);
  for (int u = 1; u <= n; ++u) {
    EXPECT_EQ(core.partner(u), reference[u - 1]) << "u=" << u;
    EXPECT_GT(core.dual2(u), 0) << "a cold start keeps labels positive";
  }
#ifndef MCHARGE_NO_OBS
  std::int64_t restarts = 0;
  for (const auto& m : obs::capture().metrics) {
    if (m.name == "blossom.cold_restarts") restarts = m.value;
  }
  EXPECT_EQ(restarts, 1);
#endif
}

TEST(IsPerfectMatching, RejectsBadShapes) {
  EXPECT_FALSE(is_perfect_matching(4, {{0, 1}}));            // too few pairs
  EXPECT_FALSE(is_perfect_matching(4, {{0, 1}, {1, 2}}));    // reuse
  EXPECT_FALSE(is_perfect_matching(4, {{0, 0}, {2, 3}}));    // self-pair
  EXPECT_FALSE(is_perfect_matching(2, {{0, 5}}));            // out of range
  EXPECT_TRUE(is_perfect_matching(4, {{2, 3}, {0, 1}}));
}

}  // namespace
}  // namespace mcharge::matching
