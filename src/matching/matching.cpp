#include "matching/matching.h"

#include <algorithm>
#include <limits>

#include "matching/blossom.h"
#include "util/assert.h"

namespace mcharge::matching {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Matching local_search_matching(const std::vector<geom::Point>& pts) {
  const std::size_t n = pts.size();
  MCHARGE_ASSERT(n % 2 == 0, "perfect matching requires even n");
  if (n == 0) return {};
  const auto weight = [&pts](std::uint32_t a, std::uint32_t b) {
    return geom::distance(pts[a], pts[b]);
  };

  // Greedy: repeatedly match the unmatched vertex with its nearest
  // unmatched partner (scanning in index order for determinism).
  std::vector<char> matched(n, 0);
  std::vector<std::uint32_t> partner(n, 0);
  for (std::uint32_t a = 0; a < n; ++a) {
    if (matched[a]) continue;
    double best_w = kInf;
    std::uint32_t best_b = a;
    for (std::uint32_t b = a + 1; b < n; ++b) {
      if (matched[b]) continue;
      const double w = weight(a, b);
      if (w < best_w) {
        best_w = w;
        best_b = b;
      }
    }
    MCHARGE_ASSERT(best_b != a, "odd number of unmatched vertices");
    matched[a] = matched[best_b] = 1;
    partner[a] = best_b;
    partner[best_b] = a;
  }

  // 2-exchange improvement: for pairs {a,b} and {c,d}, try {a,c}/{b,d} and
  // {a,d}/{b,c}. Repeat passes until no improvement (guaranteed to
  // terminate: total weight strictly decreases).
  std::vector<std::uint32_t> reps;  // one representative per pair, a < partner
  reps.reserve(n / 2);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (v < partner[v]) reps.push_back(v);
  }
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      for (std::size_t j = i + 1; j < reps.size(); ++j) {
        const std::uint32_t a = reps[i], b = partner[a];
        const std::uint32_t c = reps[j], d = partner[c];
        const double current = weight(a, b) + weight(c, d);
        const double alt1 = weight(a, c) + weight(b, d);
        const double alt2 = weight(a, d) + weight(b, c);
        if (alt1 < current - 1e-12 && alt1 <= alt2) {
          partner[a] = c;
          partner[c] = a;
          partner[b] = d;
          partner[d] = b;
          reps[i] = std::min(a, c);
          reps[j] = std::min(b, d);
          improved = true;
        } else if (alt2 < current - 1e-12) {
          partner[a] = d;
          partner[d] = a;
          partner[b] = c;
          partner[c] = b;
          reps[i] = std::min(a, d);
          reps[j] = std::min(b, c);
          improved = true;
        }
      }
    }
  }

  Matching result;
  result.reserve(n / 2);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (v < partner[v]) result.emplace_back(v, partner[v]);
  }
  return result;
}

Matching min_weight_euclidean_matching(const std::vector<geom::Point>& pts,
                                       const MatchingOptions& opts) {
  const std::size_t n = pts.size();
  switch (opts.engine) {
    case MatchingEngine::kDenseBlossom:
      return dense_blossom_euclidean_matching(pts);
    case MatchingEngine::kSparseBlossom:
      return sparse_blossom_euclidean_matching(pts);
    case MatchingEngine::kLocalSearch:
      return local_search_matching(pts);
    case MatchingEngine::kAuto:
      break;
  }
  if (n < kSparseCrossover) return dense_blossom_euclidean_matching(pts);
  if (n <= kBlossomLimit) return sparse_blossom_euclidean_matching(pts);
  return local_search_matching(pts);
}

double matching_weight(const Matching& m, const WeightFn& weight) {
  double total = 0.0;
  for (const auto& [a, b] : m) total += weight(a, b);
  return total;
}

bool is_perfect_matching(std::size_t n, const Matching& m) {
  if (m.size() * 2 != n) return false;
  std::vector<char> seen(n, 0);
  for (const auto& [a, b] : m) {
    if (a >= n || b >= n || a == b) return false;
    if (seen[a] || seen[b]) return false;
    seen[a] = seen[b] = 1;
  }
  return true;
}

}  // namespace mcharge::matching
