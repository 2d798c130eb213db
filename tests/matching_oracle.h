// Test oracle: exact minimum-weight perfect matching by bitmask DP on
// arbitrary weights (WeightFn). O(2^n * n) time and memory, so it
// certifies only small instances (n <= kOracleLimit); the library's
// geometric dispatch runs the blossom engines instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "matching/matching.h"
#include "util/assert.h"

namespace mcharge::matching::oracle {

using WeightFn = std::function<double(std::uint32_t, std::uint32_t)>;

/// Sum of edge weights in a matching.
inline double matching_weight(const Matching& m, const WeightFn& weight) {
  double total = 0.0;
  for (const auto& [a, b] : m) total += weight(a, b);
  return total;
}

/// Largest n the DP accepts (asserted: 2^n states are materialized).
inline constexpr std::size_t kOracleLimit = 16;

/// Exact minimum-weight perfect matching by bitmask DP. Requires even n,
/// n <= kOracleLimit. Pairs come out as (a, b) with a < b, ascending in a.
inline Matching exact_min_weight_matching(std::size_t n,
                                          const WeightFn& weight) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  MCHARGE_ASSERT(n % 2 == 0, "perfect matching requires even n");
  MCHARGE_ASSERT(n <= kOracleLimit,
                 "exact matching limited to n <= kOracleLimit");
  if (n == 0) return {};

  const std::uint32_t full = (1u << n) - 1u;
  std::vector<double> best(static_cast<std::size_t>(full) + 1, kInf);
  // For each reached state, the pair (a, b) added last, packed as a*32 + b.
  std::vector<std::int32_t> choice(static_cast<std::size_t>(full) + 1, -1);
  best[0] = 0.0;
  for (std::uint32_t mask = 0; mask < full; ++mask) {
    if (best[mask] == kInf) continue;
    // Pair the lowest unmatched vertex with every other unmatched vertex.
    const std::uint32_t rem = full & ~mask;
    const int a = __builtin_ctz(rem);
    std::uint32_t rest = rem & ~(1u << a);
    while (rest) {
      const int b = __builtin_ctz(rest);
      rest &= rest - 1;
      const std::uint32_t next = mask | (1u << a) | (1u << b);
      const double cost = best[mask] + weight(static_cast<std::uint32_t>(a),
                                              static_cast<std::uint32_t>(b));
      if (cost < best[next]) {
        best[next] = cost;
        choice[next] = a * 32 + b;
      }
    }
  }

  Matching result;
  std::uint32_t mask = full;
  while (mask) {
    const std::int32_t packed = choice[mask];
    MCHARGE_ASSERT(packed >= 0, "exact matching reconstruction failed");
    const auto a = static_cast<std::uint32_t>(packed / 32);
    const auto b = static_cast<std::uint32_t>(packed % 32);
    result.emplace_back(a, b);
    mask &= ~((1u << a) | (1u << b));
  }
  std::reverse(result.begin(), result.end());
  return result;
}

}  // namespace mcharge::matching::oracle
