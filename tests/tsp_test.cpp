// Tests for TSP construction, improvement, and min-max K splitting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>

#include "geometry/field.h"
#include "obs/obs.h"
#include "offset_clusters.h"
#include "tsp/construct.h"
#include "tsp/improve.h"
#include "tsp/split.h"
#include "tsp/tour_problem.h"
#include "tsp_oracle.h"
#include "util/rng.h"

namespace mcharge::tsp {
namespace {

TourProblem random_problem(std::size_t m, Rng& rng, double max_service = 100.0) {
  TourProblem p;
  p.sites = geom::uniform_field(m, 100.0, 100.0, rng);
  p.service.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    p.service.push_back(rng.uniform(0.0, max_service));
  }
  p.depot = {50.0, 50.0};
  p.speed = 1.0;
  return p;
}

/// Held-Karp exact TSP over sites + depot for tiny instances; returns the
/// optimal closed-tour travel time.
double exact_travel(const TourProblem& p) {
  const std::size_t m = p.size();
  std::vector<SiteId> perm(m);
  std::iota(perm.begin(), perm.end(), SiteId{0});
  double best = std::numeric_limits<double>::infinity();
  do {
    Tour t(perm.begin(), perm.end());
    best = std::min(best, tour_travel_time(p, t));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

// ---------- delay accounting ----------

TEST(TourProblem, DelayComponents) {
  TourProblem p;
  p.sites = {{53.0, 50.0}, {53.0, 54.0}};
  p.service = {10.0, 20.0};
  p.depot = {50.0, 50.0};
  p.speed = 1.0;
  const Tour tour{0, 1};
  EXPECT_DOUBLE_EQ(tour_service_time(p, tour), 30.0);
  EXPECT_DOUBLE_EQ(tour_travel_time(p, tour), 3.0 + 4.0 + 5.0);
  EXPECT_DOUBLE_EQ(tour_delay(p, tour), 42.0);
}

TEST(TourProblem, EmptyTourZeroDelay) {
  TourProblem p;
  p.depot = {0, 0};
  EXPECT_DOUBLE_EQ(tour_delay(p, {}), 0.0);
}

TEST(TourProblem, SpeedScalesTravelOnly) {
  TourProblem p;
  p.sites = {{10.0, 0.0}};
  p.service = {7.0};
  p.depot = {0.0, 0.0};
  p.speed = 2.0;
  EXPECT_DOUBLE_EQ(tour_delay(p, {0}), 10.0 + 7.0);
}

TEST(TourProblem, IsCompleteTour) {
  TourProblem p;
  p.sites = {{0, 0}, {1, 1}, {2, 2}};
  p.service = {0, 0, 0};
  EXPECT_TRUE(is_complete_tour(p, {2, 0, 1}));
  EXPECT_FALSE(is_complete_tour(p, {0, 1}));
  EXPECT_FALSE(is_complete_tour(p, {0, 1, 1}));
  EXPECT_FALSE(is_complete_tour(p, {0, 1, 5}));
}

// ---------- constructors ----------

class BuilderProperty : public ::testing::TestWithParam<int> {};

TEST_P(BuilderProperty, ProducesCompleteTour) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009 + 5);
  const std::size_t m = 1 + rng.below(60);
  const TourProblem p = random_problem(m, rng);
  const Tour tour = christofides_tour(p);
  EXPECT_TRUE(is_complete_tour(p, tour));
}

INSTANTIATE_TEST_SUITE_P(AllBuilders, BuilderProperty, ::testing::Range(0, 6));

TEST(Builders, EmptyAndSingleSite) {
  TourProblem p;
  p.depot = {0, 0};
  EXPECT_TRUE(christofides_tour(p).empty());
  p.sites = {{3, 4}};
  p.service = {1.0};
  const Tour t = christofides_tour(p);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0], 0u);
}

class ChristofidesQuality : public ::testing::TestWithParam<int> {};

TEST_P(ChristofidesQuality, Within1point5OfExactOnTinyInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 11);
  const std::size_t m = 3 + rng.below(5);  // 3..7 sites
  const TourProblem p = random_problem(m, rng);
  const Tour tour = christofides_tour(p);
  const double opt = exact_travel(p);
  EXPECT_LE(tour_travel_time(p, tour), 1.5 * opt + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChristofidesQuality, ::testing::Range(0, 10));

TEST(ChristofidesGolden, TourDigestPinned) {
  // One FNV-1a digest over every tour christofides_tour builds for seeds
  // 1..3 x m = 2..60 sites on uniform and clustered layouts. A tour is
  // the Euler shortcut of MST + odd-set matching, so any change to the
  // matching's pairs (or their order) moves the digest. Clusters come
  // from uniform offsets, so the digest does not depend on the libm.
  std::uint64_t digest = 14695981039346656037ULL;
  const auto mix = [&digest](std::uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      digest = (digest ^ ((word >> (8 * byte)) & 0xffu)) * 1099511628211ULL;
    }
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (std::uint32_t m = 2; m <= 60; ++m) {
      for (const bool clustered : {false, true}) {
        Rng rng(seed * 1000 + m);
        TourProblem p;
        p.sites = clustered
                      ? testing_layouts::offset_clusters(m, 100.0, 100.0,
                                                         3, 8.0, rng)
                      : geom::uniform_field(m, 100.0, 100.0, rng);
        p.service.assign(m, 0.0);
        p.depot = {50.0, 50.0};
        p.speed = 1.0;
        const Tour tour = christofides_tour(p);
        ASSERT_TRUE(is_complete_tour(p, tour));
        mix(m);
        for (const SiteId v : tour) mix(v);
      }
    }
  }
  EXPECT_EQ(digest, 0x057451ea6c32ffa5ULL);
}

// ---------- exact (Held-Karp) ----------

class HeldKarpVsEnumeration : public ::testing::TestWithParam<int> {};

TEST_P(HeldKarpVsEnumeration, MatchesPermutationOptimum) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 7);
  const std::size_t m = 1 + rng.below(7);  // 1..7 (enumeration stays cheap)
  const TourProblem p = random_problem(m, rng);
  EXPECT_NEAR(oracle::held_karp_travel_time(p), exact_travel(p), 1e-9);
  const Tour tour = oracle::held_karp_tour(p);
  EXPECT_TRUE(is_complete_tour(p, tour));
  EXPECT_NEAR(tour_travel_time(p, tour), exact_travel(p), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeldKarpVsEnumeration, ::testing::Range(0, 10));

TEST(HeldKarp, EmptyProblem) {
  TourProblem p;
  p.depot = {0, 0};
  EXPECT_DOUBLE_EQ(oracle::held_karp_travel_time(p), 0.0);
  EXPECT_TRUE(oracle::held_karp_tour(p).empty());
}

TEST(HeldKarp, MediumInstanceLowerBoundsHeuristics) {
  Rng rng(55);
  const TourProblem p = random_problem(14, rng);
  const double opt = oracle::held_karp_travel_time(p);
  EXPECT_GE(tour_travel_time(p, christofides_tour(p)), opt - 1e-9);
}

TEST(HeldKarp, TwoOptNeverBeatsExact) {
  for (int seed = 0; seed < 5; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 13 + 3);
    const TourProblem p = random_problem(10, rng);
    Tour tour = christofides_tour(p);
    improve_tour(p, tour);
    EXPECT_GE(tour_travel_time(p, tour),
              oracle::held_karp_travel_time(p) - 1e-9);
  }
}

// ---------- improvement ----------

TEST(TwoOpt, UncrossesSquare) {
  TourProblem p;
  p.sites = {{0, 0}, {10, 10}, {10, 0}, {0, 10}};
  p.service = {0, 0, 0, 0};
  p.depot = {0, -5};
  // Crossing order: 0 -> 1 -> 2 -> 3.
  Tour tour{0, 1, 2, 3};
  const double before = tour_travel_time(p, tour);
  const double saved = two_opt(p, tour);
  EXPECT_GT(saved, 0.0);
  EXPECT_NEAR(tour_travel_time(p, tour), before - saved, 1e-9);
  EXPECT_TRUE(is_complete_tour(p, tour));
}

class ImproveProperty : public ::testing::TestWithParam<int> {};

TEST_P(ImproveProperty, NeverIncreasesTravelAndStaysComplete) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 401 + 3);
  const std::size_t m = 2 + rng.below(50);
  const TourProblem p = random_problem(m, rng);
  Tour tour = christofides_tour(p);
  const double before = tour_travel_time(p, tour);
  const double saved = improve_tour(p, tour);
  EXPECT_GE(saved, 0.0);
  EXPECT_NEAR(tour_travel_time(p, tour), before - saved, 1e-6);
  EXPECT_TRUE(is_complete_tour(p, tour));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImproveProperty, ::testing::Range(0, 8));

TEST(OrOpt, RelocatesObviousOutlier) {
  // Line of sites visited out of order (20 before 10); relocating the
  // single site x=10 to the front saves 20 m.
  TourProblem p;
  p.sites = {{10, 0}, {20, 0}, {30, 0}, {40, 0}};
  p.service = {0, 0, 0, 0};
  p.depot = {0, 0};
  Tour tour{1, 0, 2, 3};  // 0 -> 20 -> 10 -> 30 -> 40 -> 0 = 100 m
  const double saved = or_opt(p, tour);
  EXPECT_NEAR(saved, 20.0, 1e-9);
  EXPECT_EQ(tour, (Tour{0, 1, 2, 3}));
}

// ---------- splitting ----------

TEST(Split, SingleChargerKeepsWholeTour) {
  Rng rng(1);
  const TourProblem p = random_problem(20, rng);
  Tour tour = christofides_tour(p);
  const auto result = split_min_max(p, tour, 1);
  ASSERT_EQ(result.tours.size(), 1u);
  EXPECT_TRUE(is_complete_tour(p, result.tours[0]));
  EXPECT_NEAR(result.max_delay, tour_delay(p, tour), 1e-9);
}

TEST(Split, EmptyProblem) {
  TourProblem p;
  p.depot = {0, 0};
  const auto result = split_min_max(p, {}, 3);
  ASSERT_EQ(result.tours.size(), 3u);
  for (const auto& t : result.tours) EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(result.max_delay, 0.0);
}

class SplitProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitProperty, PartitionPreservedAndDelayConsistent) {
  const auto [seed, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 61 + 13);
  const std::size_t m = 1 + rng.below(80);
  const TourProblem p = random_problem(m, rng, 500.0);
  Tour tour = christofides_tour(p);
  two_opt(p, tour);
  const auto result = split_min_max(p, tour, static_cast<std::size_t>(k));
  ASSERT_EQ(result.tours.size(), static_cast<std::size_t>(k));

  // Union of segments is exactly the site set, in tour order.
  Tour combined;
  for (const auto& seg : result.tours) {
    combined.insert(combined.end(), seg.begin(), seg.end());
  }
  EXPECT_EQ(combined, tour);

  // Reported max delay matches recomputation and never exceeds the whole
  // tour's delay.
  double recomputed = 0.0;
  for (const auto& seg : result.tours) {
    recomputed = std::max(recomputed, tour_delay(p, seg));
  }
  EXPECT_NEAR(result.max_delay, recomputed, 1e-9);
  EXPECT_LE(result.max_delay, tour_delay(p, tour) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplitProperty,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(1, 2, 3, 5)));

/// Brute force: best max-delay over all ways to cut `tour` into <= k
/// consecutive segments (exponential; tiny inputs only).
double brute_force_split(const TourProblem& p, const Tour& tour,
                         std::size_t k) {
  const std::size_t m = tour.size();
  double best = std::numeric_limits<double>::infinity();
  // Each of the m-1 gaps is cut or not; <= k segments means <= k-1 cuts.
  const std::uint32_t gaps = m > 0 ? static_cast<std::uint32_t>(m - 1) : 0;
  for (std::uint32_t mask = 0; mask < (1u << gaps); ++mask) {
    if (static_cast<std::size_t>(__builtin_popcount(mask)) > k - 1) continue;
    double worst = 0.0;
    Tour segment;
    for (std::size_t i = 0; i < m; ++i) {
      segment.push_back(tour[i]);
      const bool cut = i < gaps && (mask & (1u << i));
      if (cut || i + 1 == m) {
        worst = std::max(worst, tour_delay(p, segment));
        segment.clear();
      }
    }
    best = std::min(best, worst);
  }
  return best;
}

class SplitOptimality : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(SplitOptimality, BinarySearchMatchesBruteForceCut) {
  const auto [seed, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 131 + 71);
  const std::size_t m = 2 + rng.below(11);  // 2..12 sites
  const TourProblem p = random_problem(m, rng, 400.0);
  const Tour tour = christofides_tour(p);
  const auto split = split_min_max(p, tour, static_cast<std::size_t>(k));
  const double brute = brute_force_split(p, tour, static_cast<std::size_t>(k));
  EXPECT_NEAR(split.max_delay, brute, 1e-6 * std::max(1.0, brute));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplitOptimality,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(Split, MoreChargersNeverWorse) {
  Rng rng(17);
  const TourProblem p = random_problem(60, rng, 300.0);
  Tour tour = christofides_tour(p);
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= 5; ++k) {
    const auto result = split_min_max(p, tour, k);
    EXPECT_LE(result.max_delay, prev + 1e-9);
    prev = result.max_delay;
  }
}

TEST(Split, LowerBoundRespected) {
  // Max delay can never be below the hardest single site.
  Rng rng(23);
  const TourProblem p = random_problem(40, rng, 1000.0);
  Tour tour = christofides_tour(p);
  double hardest = 0.0;
  for (SiteId v = 0; v < p.size(); ++v) {
    hardest = std::max(hardest, 2.0 * p.travel_depot(v) + p.service[v]);
  }
  const auto result = split_min_max(p, tour, 4);
  EXPECT_GE(result.max_delay, hardest - 1e-9);
}

TEST(Split, ChargerPerSiteGivesHardestSoloRoundTrip) {
  // With k >= m every site can ride alone, so the optimum is the split's
  // lower bound: the largest solo round trip 2 * travel_depot + service.
  // All depot distances are exactly 10 and every merged segment's delay
  // stays far from the bound, so the result is exact.
  TourProblem p;
  p.depot = {0.0, 0.0};
  p.sites = {{10.0, 0.0}, {6.0, 8.0}, {0.0, 10.0}, {-8.0, 6.0}, {-10.0, 0.0}};
  p.service = {100.0, 300.0, 200.0, 50.0, 150.0};
  const Tour tour{0, 1, 2, 3, 4};
  for (const std::size_t k : {std::size_t{5}, std::size_t{7}}) {
    const auto result = split_min_max(p, tour, k);
    ASSERT_EQ(result.tours.size(), k);
    EXPECT_EQ(result.max_delay, 320.0) << "k=" << k;
    for (const auto& seg : result.tours) {
      if (std::find(seg.begin(), seg.end(), SiteId{1}) != seg.end()) {
        EXPECT_EQ(seg, Tour{1}) << "k=" << k;
      }
    }
  }
}

// Energy of a depot-rooted segment under a SegmentEnergyCap's cost model.
double segment_energy(const TourProblem& p, const Tour& s,
                      const SegmentEnergyCap& cap) {
  if (s.empty()) return 0.0;
  double travel = p.travel_depot(s.front()) + p.travel_depot(s.back());
  double service = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i + 1 < s.size()) travel += p.travel(s[i], s[i + 1]);
    service += p.service[s[i]];
  }
  return travel * cap.travel_power_w + service * cap.service_power_w;
}

TEST(Split, DisabledEnergyCapIsByteIdentical) {
  Rng rng(29);
  const TourProblem p = random_problem(50, rng, 400.0);
  Tour tour = christofides_tour(p);
  const auto plain = split_min_max(p, tour, 3);
  SegmentEnergyCap cap;  // budget 0 = disabled; cost fields must be inert
  cap.travel_power_w = 135.0;
  cap.service_power_w = 2.0;
  const auto capped = split_min_max(p, tour, 3, cap);
  ASSERT_EQ(plain.tours.size(), capped.tours.size());
  for (std::size_t i = 0; i < plain.tours.size(); ++i) {
    EXPECT_EQ(plain.tours[i], capped.tours[i]);
  }
  EXPECT_EQ(plain.max_delay, capped.max_delay);
}

TEST(Split, EnergyCapBoundsEverySegmentWhenRoomAllows) {
  Rng rng(31);
  const TourProblem p = random_problem(40, rng, 400.0);
  Tour tour = christofides_tour(p);
  SegmentEnergyCap cap;
  cap.travel_power_w = 135.0;
  cap.service_power_w = 2.0;
  // A third of the whole tour's energy: binding (an uncapped 2-way split
  // must overdraw it) yet feasible with room for extra segments.
  cap.budget_j = segment_energy(p, tour, cap) / 3.0;
  const auto uncapped = split_min_max(p, tour, 2);
  bool overdraw = false;
  for (const auto& s : uncapped.tours) {
    overdraw = overdraw || segment_energy(p, s, cap) > cap.budget_j;
  }
  ASSERT_TRUE(overdraw) << "cap not binding; test instance too easy";

  const auto capped = split_min_max(p, tour, 20, cap);
  Tour combined;
  for (const auto& s : capped.tours) {
    EXPECT_LE(segment_energy(p, s, cap),
              cap.budget_j * (1.0 + 1e-12) + 1e-9);
    combined.insert(combined.end(), s.begin(), s.end());
  }
  EXPECT_EQ(combined, tour);  // still a partition in tour order
}

TEST(Split, InfeasibleEnergyCapFallsBackToUncapped) {
  Rng rng(37);
  const TourProblem p = random_problem(30, rng, 400.0);
  Tour tour = christofides_tour(p);
  SegmentEnergyCap cap;
  cap.travel_power_w = 135.0;
  cap.service_power_w = 2.0;
  cap.budget_j = 1e-3;  // nothing multi-site fits; k = 1 cannot satisfy it
  const auto fallback = split_min_max(p, tour, 1, cap);
  const auto plain = split_min_max(p, tour, 1);
  ASSERT_EQ(fallback.tours.size(), 1u);
  EXPECT_EQ(fallback.tours[0], plain.tours[0]);
  EXPECT_TRUE(is_complete_tour(p, fallback.tours[0]));
}

TEST(Split, CountOnlyProbesMatchFrozenSplit) {
  // Random tours (shuffled and Christofides) over random service times,
  // K from 1 to past the site count, and energy caps off, binding,
  // loose and infeasible (the fallback): the count-only probes must pick
  // the frozen segment-building split's cut, tour for tour and bit for
  // bit in max_delay.
  std::size_t splits = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(9300 + seed);
    const std::size_t m = 1 + rng.below(120);
    const TourProblem p = random_problem(m, rng, seed % 2 == 0 ? 400.0 : 5.0);
    Tour tour(m);
    std::iota(tour.begin(), tour.end(), SiteId{0});
    if (seed % 3 == 0) {
      tour = christofides_tour(p);
    } else {
      rng.shuffle(tour);
    }
    SegmentEnergyCap cap;
    cap.travel_power_w = 135.0;
    cap.service_power_w = 2.0;
    const double whole_j = segment_energy(p, tour, cap);
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
          m + 2}) {
      for (const double budget_j :
           {0.0, whole_j / 3.0, whole_j / 1.5, whole_j * 2.0, 1e-3}) {
        cap.budget_j = budget_j;
        const SplitResult got = split_min_max(p, tour, k, cap);
        const SplitResult want =
            oracle::segment_building_split(p, tour, k, cap);
        ASSERT_EQ(got.tours, want.tours)
            << "seed=" << seed << " k=" << k << " cap=" << budget_j;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.max_delay),
                  std::bit_cast<std::uint64_t>(want.max_delay))
            << "seed=" << seed << " k=" << k << " cap=" << budget_j;
        ++splits;
      }
    }
  }
  EXPECT_EQ(splits, 40u * 5u * 5u);
}

TEST(Split, ProbeFreeStepsMatchFrozenSplit) {
  // The inputs where the bisection skips most probes: one- and two-site
  // tours (no extension, so no probe at all), duplicate sites with equal
  // service times (zero legs, tied extensions), and K at or past the
  // site count; with the energy cap off, binding and infeasible. Every
  // split must equal the frozen split, which probes each step.
  std::size_t splits = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(9400 + seed);
    const std::size_t m =
        seed < 6 ? 1 + seed % 2 : 1 + rng.below(seed % 2 == 0 ? 8 : 90);
    TourProblem p = random_problem(m, rng, seed % 3 == 0 ? 800.0 : 20.0);
    if (seed % 3 == 1) {
      // A handful of distinct sites, each repeated, with one service time.
      const auto distinct = geom::uniform_field(3, 100.0, 100.0, rng);
      for (auto& site : p.sites) site = distinct[rng.below(3)];
      std::fill(p.service.begin(), p.service.end(), 60.0);
    }
    Tour tour(m);
    std::iota(tour.begin(), tour.end(), SiteId{0});
    rng.shuffle(tour);
    SegmentEnergyCap cap;
    cap.travel_power_w = 135.0;
    cap.service_power_w = 2.0;
    const double whole_j = segment_energy(p, tour, cap);
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, m, m + 3}) {
      for (const double budget_j : {0.0, whole_j / 2.0, 1e-3}) {
        cap.budget_j = budget_j;
        const SplitResult got = split_min_max(p, tour, k, cap);
        const SplitResult want =
            oracle::segment_building_split(p, tour, k, cap);
        ASSERT_EQ(got.tours, want.tours)
            << "seed=" << seed << " k=" << k << " cap=" << budget_j;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.max_delay),
                  std::bit_cast<std::uint64_t>(want.max_delay))
            << "seed=" << seed << " k=" << k << " cap=" << budget_j;
        ++splits;
      }
    }
  }
  EXPECT_EQ(splits, 30u * 5u * 3u);
}

#ifndef MCHARGE_NO_OBS
TEST(Split, OneProbeSplitsTwoFarSites) {
  // Two sites in opposite corners, K = 2. The cut at the whole-tour budget
  // joins them; the first midpoint is below that join's delay, so one
  // probe splits them. A cut of solo segments extends nothing, so every
  // later step keeps it without a probe. tsp.split_probes counts the
  // probes run.
  TourProblem p;
  p.sites = {{0.0, 0.0}, {100.0, 100.0}};
  p.service = {10.0, 10.0};
  p.depot = {50.0, 50.0};
  p.speed = 1.0;
  const obs::EnabledScope tracing(true);
  obs::reset();
  const SplitResult r = split_min_max(p, Tour{0, 1}, 2);
  EXPECT_EQ(r.tours, (std::vector<Tour>{{0}, {1}}));
  std::int64_t probes = -1;
  for (const auto& m : obs::capture().metrics) {
    if (m.name == "tsp.split_probes") probes = m.value;
  }
  EXPECT_EQ(probes, 1);
}
#endif

TEST(MinMaxKTours, EndToEndCoversAllSites) {
  Rng rng(31);
  const TourProblem p = random_problem(100, rng, 200.0);
  const auto result = min_max_k_tours(p, 3);
  std::vector<char> seen(p.size(), 0);
  for (const auto& tour : result.tours) {
    for (SiteId v : tour) {
      EXPECT_FALSE(seen[v]);
      seen[v] = 1;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](char c) { return c; }));
  EXPECT_GT(result.max_delay, 0.0);
}

TEST(MinMaxKTours, SegmentImproveNeverHurts) {
  Rng rng(41);
  const TourProblem p = random_problem(80, rng, 200.0);
  MinMaxTourOptions with, without;
  with.improve_segments = true;
  without.improve_segments = false;
  const auto a = min_max_k_tours(p, 3, with);
  const auto b = min_max_k_tours(p, 3, without);
  EXPECT_LE(a.max_delay, b.max_delay + 1e-9);
}

TEST(MinMaxKTours, BuildsNoDistanceMatrix) {
  // Construction streams Prim rows from coordinates and the split reads
  // one leg array, so the end-to-end call never tabulates m x m distances.
  Rng rng(505);
  const TourProblem p = random_problem(505, rng, 200.0);
  const auto result = min_max_k_tours(p, 2);
  EXPECT_GT(result.max_delay, 0.0);
  EXPECT_FALSE(p.has_distance_cache());
}

TEST(MinMaxGolden, PlanDigestPinned) {
  // One FNV-1a digest over every plan min_max_k_tours returns for
  // m = 2..60, 200, 505 and 1000 sites x k in {1, 2, 5} x uniform and
  // clustered layouts x three energy caps: none, an active cap (0.9x the
  // uncapped plan's largest segment energy) and a 1 J cap the split has
  // to drop. Tours and the max_delay bits both feed the digest. Clusters
  // come from uniform offsets, so the digest does not depend on the libm.
  std::uint64_t digest = 14695981039346656037ULL;
  const auto mix = [&digest](std::uint64_t word, int bytes) {
    for (int byte = 0; byte < bytes; ++byte) {
      digest = (digest ^ ((word >> (8 * byte)) & 0xffu)) * 1099511628211ULL;
    }
  };
  std::vector<std::size_t> sizes;
  for (std::size_t m = 2; m <= 60; ++m) sizes.push_back(m);
  sizes.insert(sizes.end(), {200, 505, 1000});
  constexpr double kTravelW = 12.0;
  constexpr double kServiceW = 2.0;
  const auto energy = [&](const TourProblem& p, const Tour& seg) {
    return tour_travel_time(p, seg) * kTravelW +
           tour_service_time(p, seg) * kServiceW;
  };
  std::size_t cap_held = 0;
  std::size_t cap_dropped = 0;
  for (const std::size_t m : sizes) {
    for (const bool clustered : {false, true}) {
      Rng rng(7000 + m);
      TourProblem p;
      p.sites = clustered
                    ? testing_layouts::offset_clusters(m, 1000.0, 1000.0, 4,
                                                       100.0, rng)
                    : geom::uniform_field(m, 1000.0, 1000.0, rng);
      for (std::size_t i = 0; i < m; ++i) {
        p.service.push_back(rng.uniform(10.0, 600.0));
      }
      p.depot = {500.0, 500.0};
      p.speed = 5.0;
      for (const std::size_t k : {1, 2, 5}) {
        const SplitResult free = min_max_k_tours(p, k);
        double worst_j = 0.0;
        for (const Tour& seg : free.tours) {
          worst_j = std::max(worst_j, energy(p, seg));
        }
        for (const double budget_j : {0.0, 0.9 * worst_j, 1.0}) {
          MinMaxTourOptions options;
          options.energy = {budget_j, kTravelW, kServiceW};
          const SplitResult got =
              budget_j == 0.0 ? free : min_max_k_tours(p, k, options);
          ASSERT_EQ(got.tours.size(), k);
          bool fits = true;
          for (const Tour& seg : got.tours) {
            if (seg.size() >= 2 && energy(p, seg) > budget_j) fits = false;
          }
          if (budget_j > 1.0 && fits && got.tours != free.tours) ++cap_held;
          if (budget_j == 1.0 && !fits) ++cap_dropped;
          mix(m, 4);
          mix(k, 4);
          mix(std::bit_cast<std::uint64_t>(got.max_delay), 8);
          for (const Tour& seg : got.tours) {
            mix(seg.size(), 4);
            for (const SiteId v : seg) mix(v, 4);
          }
        }
      }
    }
  }
  EXPECT_GT(cap_held, 0u);
  EXPECT_GT(cap_dropped, 0u);
  EXPECT_EQ(digest, 0x5511d185673ba6acULL);
}

// ---------- distance cache ----------

TEST(DistanceCache, MatchesOnTheFlyGeometryBitwise) {
  Rng rng(51);
  const TourProblem p = random_problem(60, rng);
  ASSERT_FALSE(p.has_distance_cache());
  // Record the uncached answers, then build the cache and re-query.
  std::vector<double> travel_before, depot_before;
  for (SiteId a = 0; a < p.size(); ++a) {
    depot_before.push_back(p.travel_depot(a));
    for (SiteId b = 0; b < p.size(); ++b) {
      travel_before.push_back(p.travel(a, b));
    }
  }
  p.ensure_distance_cache();
  ASSERT_TRUE(p.has_distance_cache());
  std::size_t idx = 0;
  for (SiteId a = 0; a < p.size(); ++a) {
    EXPECT_EQ(p.travel_depot(a), depot_before[a]);
    for (SiteId b = 0; b < p.size(); ++b) {
      EXPECT_EQ(p.travel(a, b), travel_before[idx++]);  // bitwise
    }
  }
}

TEST(DistanceCache, SymmetricAndZeroDiagonal) {
  Rng rng(52);
  const TourProblem p = random_problem(30, rng);
  p.ensure_distance_cache();
  for (SiteId a = 0; a < p.size(); ++a) {
    EXPECT_EQ(p.distance(a, a), 0.0);
    for (SiteId b = a + 1; b < p.size(); ++b) {
      EXPECT_EQ(p.distance(a, b), p.distance(b, a));
    }
  }
}

TEST(DistanceCache, DropRestoresOnTheFlyPath) {
  Rng rng(53);
  const TourProblem p = random_problem(10, rng);
  p.ensure_distance_cache();
  ASSERT_TRUE(p.has_distance_cache());
  p.drop_distance_cache();
  EXPECT_FALSE(p.has_distance_cache());
  EXPECT_EQ(p.travel(0, 1), geom::distance(p.sites[0], p.sites[1]) / p.speed);
}

TEST(DistanceCache, StaleSizeIsRebuilt) {
  Rng rng(54);
  TourProblem p = random_problem(10, rng);
  p.ensure_distance_cache();
  p.sites.push_back({1.0, 2.0});
  p.service.push_back(0.0);
  EXPECT_FALSE(p.has_distance_cache());  // size mismatch = stale
  p.ensure_distance_cache();
  ASSERT_TRUE(p.has_distance_cache());
  EXPECT_EQ(p.distance(0, 10), geom::distance(p.sites[0], p.sites[10]));
}

TEST(DistanceCache, EmptyProblemBuildIsANoOpButCounts) {
  TourProblem p;
  EXPECT_FALSE(p.has_distance_cache());
  p.ensure_distance_cache();
  // m == 0 allocates nothing, but the build is remembered: repeated
  // ensure/drop cycles on empty subproblems must stay allocation-free.
  EXPECT_TRUE(p.has_distance_cache());
  p.drop_distance_cache();
  EXPECT_FALSE(p.has_distance_cache());
}

TEST(DistanceCache, SingleSiteBuildIsANoOp) {
  TourProblem p;
  p.sites.push_back({3.0, 4.0});
  p.service.push_back(1.0);
  p.ensure_distance_cache();
  EXPECT_TRUE(p.has_distance_cache());
  // No tables for a single site; queries fall through to on-the-fly
  // geometry and stay bitwise-correct.
  EXPECT_EQ(p.distance_depot(0), 5.0);
  EXPECT_EQ(p.distance(0, 0), 0.0);
}

TEST(DistanceCache, SingleSiteStaysCurrentUntilSitesGrow) {
  TourProblem p;
  p.sites.push_back({3.0, 4.0});
  p.service.push_back(1.0);
  p.ensure_distance_cache();
  ASSERT_TRUE(p.has_distance_cache());
  p.sites.push_back({6.0, 8.0});
  p.service.push_back(1.0);
  EXPECT_FALSE(p.has_distance_cache());
  p.ensure_distance_cache();
  ASSERT_TRUE(p.has_distance_cache());
  EXPECT_EQ(p.distance(0, 1), 5.0);
}

TEST(DistanceCache, TwoOptIdenticalWithAndWithoutCache) {
  Rng rng(55);
  const TourProblem uncached = random_problem(80, rng);
  TourProblem cached = uncached;
  cached.ensure_distance_cache();

  Tour tour_uncached = christofides_tour(uncached);
  ASSERT_FALSE(uncached.has_distance_cache());  // construction builds none
  Tour tour_cached = tour_uncached;

  const double saved_uncached = two_opt(uncached, tour_uncached);
  const double saved_cached = two_opt(cached, tour_cached);
  EXPECT_EQ(saved_uncached, saved_cached);  // bitwise-identical gains
  EXPECT_EQ(tour_uncached, tour_cached);    // identical final tours
}

TEST(DistanceCache, OrOptIdenticalWithAndWithoutCache) {
  Rng rng(56);
  const TourProblem uncached = random_problem(80, rng);
  TourProblem cached = uncached;
  cached.ensure_distance_cache();

  Tour base = christofides_tour(cached);
  uncached.drop_distance_cache();
  Tour tour_uncached = base;
  Tour tour_cached = base;

  const double saved_uncached = or_opt(uncached, tour_uncached);
  const double saved_cached = or_opt(cached, tour_cached);
  EXPECT_EQ(saved_uncached, saved_cached);
  EXPECT_EQ(tour_uncached, tour_cached);
}

TEST(DistanceCache, MinMaxKToursIdenticalWithPrebuiltCache) {
  Rng rng(57);
  const TourProblem fresh = random_problem(60, rng, 200.0);
  TourProblem prebuilt = fresh;
  prebuilt.ensure_distance_cache();
  const auto a = min_max_k_tours(fresh, 3);     // computes on the fly
  const auto b = min_max_k_tours(prebuilt, 3);  // reads the prebuilt cache
  EXPECT_EQ(a.max_delay, b.max_delay);
  EXPECT_EQ(a.tours, b.tours);
}

}  // namespace
}  // namespace mcharge::tsp
