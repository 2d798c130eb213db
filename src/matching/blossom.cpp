#include "matching/blossom.h"

#include <cstdint>
#include <vector>

#include "matching/blossom_core.h"
#include "matching/quantize.h"
#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::matching {

namespace detail {

BlossomArena& thread_arena() {
  static thread_local BlossomArena arena;
  return arena;
}

}  // namespace detail

namespace {

Matching extract_matching(std::size_t n, const auto& core) {
  Matching result;
  result.reserve(n / 2);
  for (std::uint32_t v = 0; v < n; ++v) {
    const int mate = core.partner(static_cast<int>(v) + 1);
    MCHARGE_ASSERT(mate >= 1, "blossom did not produce a perfect matching");
    const auto m = static_cast<std::uint32_t>(mate - 1);
    if (v < m) result.emplace_back(v, m);
  }
  MCHARGE_ASSERT(is_perfect_matching(n, result),
                 "blossom produced a non-perfect matching");
  return result;
}

}  // namespace

Matching dense_blossom_euclidean_matching(const std::vector<geom::Point>& pts) {
  const std::size_t n = pts.size();
  MCHARGE_ASSERT(n % 2 == 0, "perfect matching requires even n");
  if (n == 0) return {};
  if (n == 2) return {{0, 1}};

  const detail::BlossomQuantizer qz = detail::make_point_quantizer(pts);
  detail::BlossomArena& arena = detail::thread_arena();
  detail::DenseStore store(static_cast<int>(n), arena);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      const std::int64_t profit =
          qz.profit(geom::distance(pts[u], pts[v]), u, v);
      store.set2(static_cast<int>(u) + 1, static_cast<int>(v) + 1, 2 * profit);
    }
  }
  detail::BlossomCore<detail::DenseStore> core(static_cast<int>(n), store,
                                              arena);
  {
    OBS_SPAN("blossom.dense_solve");
    core.solve();
  }
  return extract_matching(n, core);
}

}  // namespace mcharge::matching
