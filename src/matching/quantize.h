// Shared integer quantization for the geometric blossom engines.
//
// Both the dense and the sparse price-and-repair engine transform real
// Euclidean costs into integer "profits" through the SAME quantizer, so
// they optimize the identical integer objective. Two properties matter:
//
//  * Adaptive resolution. The primary quantization step count is a power
//    of two chosen so that the largest doubled solver label fits well
//    inside int64 (resolution * tie_scale * 2 <= 2^61): at n = 4096 that
//    is 2^29 steps over the bounding-box diagonal, growing toward 2^40
//    for small instances — always at least the documented
//    kBlossomResolution (2^20) minimum.
//
//  * Deterministic tie-breaking. A per-edge pseudo-random perturbation
//    r(u, v) in [0, 2^18) (splitmix64 of the packed index pair) is
//    subtracted below the primary digit: profit = P * S + (2^18 - r)
//    with S = (n/2 + 1) * 2^18, so no sum of n/2 tie terms can ever
//    overflow into a primary step. Any two matchings with equal primary
//    cost are (generically) separated by their tie sums, making the
//    optimum unique — which is what lets two different exact engines
//    return byte-identical matchings. A vertex-index bonus would NOT
//    work: any vertex-separable term sums to the same constant over
//    every perfect matching.
//
//  * Dual headroom. resolution * tie_scale < 2^59 (and tie_scale < 2^39)
//    keeps every doubled weight W = 2 * profit below 2^60 + 2^41. The
//    blossom core runs perfect-matching phases from a jump start, so
//    vertex labels are unrestricted in sign; it keeps them at or above
//    the floor F = w2_max - kLabelSpan2 (a solve that would cross it
//    restarts cold, see blossom_core.h), which the budget above puts at
//    least 2.75 W below zero. Every label is then at most
//    W - F + 1 = kLabelSpan2 + 1 (a matched label is a weight minus its
//    mate's label minus z >= 0; a repaired entry label gains at most a
//    parity unit), every blossom z and every chain sum of z at most
//    W - 2F, and every label sum, reduced cost and pricing left-hand side
//    lies in [2F - W, 2 * kLabelSpan2 + 2] — inside int64, with 2^59 to
//    spare at the top.
//
// The bounding-box diagonal upper-bounds every pairwise distance in
// floating point too (each of sub/mul/add/sqrt is correctly rounded and
// monotone), so quantized costs never exceed the resolution by more than
// the final llround — clamped defensively.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geometry/point.h"
#include "util/assert.h"

namespace mcharge::matching::detail {

inline constexpr int kTieBits = 18;
inline constexpr std::int64_t kTieRange = std::int64_t{1} << kTieBits;

inline std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic per-edge tie perturbation in [0, kTieRange). Requires
/// u < v (one canonical orientation per undirected edge).
inline std::int64_t tie_hash(std::uint32_t u, std::uint32_t v) {
  const std::uint64_t key = (std::uint64_t{u} << 32) | v;
  return static_cast<std::int64_t>(splitmix64(key) >> (64 - kTieBits));
}

/// How far below the largest doubled weight the blossom core lets a
/// doubled vertex label fall (see the dual headroom note above).
inline constexpr std::int64_t kLabelSpan2 =
    (std::int64_t{1} << 62) - (std::int64_t{1} << 58);

struct BlossomQuantizer {
  double scale = 1.0;            ///< cost -> primary quantization steps
  std::int64_t resolution = 0;   ///< primary step count (power of two)
  std::int64_t tie_scale = 0;    ///< S: one primary step in perturbed units

  /// Perturbed integer profit of edge (u, v), u < v, with Euclidean cost
  /// `cost` in [0, diagonal]. Maximizing total profit minimizes total
  /// cost; strictly positive so the max-weight matching is perfect.
  std::int64_t profit(double cost, std::uint32_t u, std::uint32_t v) const {
    auto q = static_cast<std::int64_t>(std::llround(cost * scale));
    if (q > resolution) q = resolution;  // FP slack on the farthest pairs
    return (resolution + 1 - q) * tie_scale + (kTieRange - tie_hash(u, v));
  }
};

/// Quantizer over the point set's bounding-box diagonal. Both geometric
/// engines must build their quantizer through this function: identical
/// inputs give identical transforms, hence the identical integer optimum.
inline BlossomQuantizer make_point_quantizer(
    const std::vector<geom::Point>& pts) {
  const geom::BoundingBox box = geom::bounding_box(pts);
  const double diag = box.empty ? 0.0 : geom::distance(box.lo, box.hi);
  const double span = diag > 0.0 ? diag : 1.0;
  BlossomQuantizer qz;
  const auto half = static_cast<std::int64_t>(pts.size()) / 2 + 1;
  qz.tie_scale = half << kTieBits;
  const int resolution_bits = std::min(
      40, 59 - static_cast<int>(
                   std::bit_width(static_cast<std::uint64_t>(qz.tie_scale))));
  MCHARGE_ASSERT(resolution_bits >= 20,
                 "blossom quantizer: instance too large for int64 duals");
  qz.resolution = std::int64_t{1} << resolution_bits;
  qz.scale = static_cast<double>(qz.resolution) / span;
  return qz;
}

}  // namespace mcharge::matching::detail
