// Internal kernel table shared between the simd dispatch layer and the
// per-ISA translation units. Not part of the public API.
//
// The per-ISA TU (simd_avx2.cpp) is compiled with -mavx2 and
// -ffp-contract=off. It must include ONLY this
// header and freestanding system headers: pulling repo headers with
// inline FP functions (e.g. geom::distance) into a TU built with wider
// ISA flags would let the linker pick an ISA-specialized weak definition
// for the whole binary, breaking both portability and the bitwise
// determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

#if !defined(MCHARGE_NO_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define MCHARGE_SIMD_X86 1
#else
#define MCHARGE_SIMD_X86 0
#endif

namespace mcharge::simd::detail {

// Exact squared-distance prefilter of two_opt_scan / or_opt_scan
// --------------------------------------------------------------
// Both scans test a travel sum against a right-hand side fixed per element
// (s = speed; qa = fl(fl(dx*dx) + fl(dy*dy)) is the very double the exact
// path feeds to sqrt, da = fl(sqrt(qa)); likewise qb, db):
//   2-opt:  fl(fl(da/s) + fl(db/s))          < R,  R = fl(fl(base + tc[j]) - min_gain)
//   Or-opt: fl(fl(fl(da/s) + fl(db/s)) - tc) < T,  R := fl(T + tc[k])
// A lane whose
//   fl(qa + qb) > B,  B = max(fl(fl(t*t) * kPrefilterWiden), floor),  t = fl(R*s)
// cannot be a hit, so the kernels skip its sqrt and divides; every other
// lane runs the exact expression, and the first hit is unchanged.
// Proof. u = 2^-53, round to nearest; rounding is monotone, so for a double
// D, fl(y) < D implies y < D. If R <= 0 there is no hit (all terms are
// >= 0, and fl(T + tc) <= 0 implies T + tc <= 0) and any verdict is sound.
// Otherwise, a hit implies
//   a' + b' < R / (1-u)^2               where a' = fl(da/s), b' = fl(db/s)
//     (2-opt: fl(a'+b') < R gives a'+b' < R directly; Or-opt: fl(x-tc) < T
//      gives x < T + tc <= R/(1-u) with x = fl(a'+b') >= (a'+b')(1-u)),
//   da + db < s*R / (1-u)^3             (a' >= (da/s)(1-u)),
//   sqrt(qa) + sqrt(qb) < s*R / (1-u)^4 (da >= sqrt(qa)(1-u)),
//   fl(qa+qb) <= (qa+qb)(1+u) <= (sqrt(qa)+sqrt(qb))^2 (1+u)
//             < (s*R)^2 (1+u) / (1-u)^8,
// while fl(fl(t*t) * W) >= (s*R)^2 (1-u)^4 W. So fl(qa+qb) < B whenever
// W >= (1+u) / (1-u)^12, which W = 1 + 2^-40 (= 1 + 8192u) satisfies with
// room to spare. Range: the relative bounds hold when s*R >= 2^-460 and
// s is in [2^-100, 2^100] (every intermediate is then normal, or its
// absolute underflow error, at most 2^-1074 * 2^100, is far inside the
// margin). When s*R < 2^-460 a hit needs fl(qa+qb) < 2^-917, below the
// floor 2^-900. A speed outside [2^-100, 2^100] sets the floor to +inf,
// which passes every lane. Overflow gives B = +inf, which also passes.
// The sum test is stronger than testing qa and qb separately: it rejects
// every lane that either single test would.
inline constexpr double kPrefilterWiden = 1.0 + 0x1p-40;
inline constexpr double kPrefilterFloor = 0x1p-900;
inline constexpr double kPrefilterMinSpeed = 0x1p-100;
inline constexpr double kPrefilterMaxSpeed = 0x1p100;

struct KernelTable {
  void (*distance_row)(const double* xs, const double* ys, std::size_t n,
                       double px, double py, double* out);
  std::size_t (*prim_relax_pick)(const double* xs, const double* ys,
                                 double* best, std::uint32_t* parent,
                                 const std::uint32_t* ids, std::size_t n,
                                 double px, double py, std::uint32_t added);
  std::size_t (*two_opt_scan)(const double* px, const double* py,
                              const double* tc, std::size_t j_begin,
                              std::size_t j_end, double ax, double ay,
                              double bx, double by, double speed, double base,
                              double min_gain);
  std::size_t (*or_opt_scan)(const double* px, const double* py,
                             const double* tc, std::size_t k_begin,
                             std::size_t k_end, double ix, double iy,
                             double ex, double ey, double speed,
                             double threshold);
  double (*crossing_min)(const double* level, const double* as_of,
                         const double* draw, std::size_t n, double threshold,
                         double eps);
  std::size_t (*advance_select_below)(double* level, double* as_of,
                                      double* dead_since, const double* draw,
                                      std::size_t n, double t,
                                      double threshold,
                                      const std::uint32_t* ids,
                                      std::uint32_t* out);
  void (*i64_dual_apply)(std::int64_t* lab, const std::int32_t* state,
                         std::size_t lo, std::size_t hi, std::int64_t d);
  std::int64_t (*i64_slack_bound)(const std::int64_t* val,
                                  const std::int32_t* slack,
                                  const std::int32_t* st,
                                  const std::int32_t* s, std::size_t lo,
                                  std::size_t hi);
  void (*i64_slack_shift)(std::int64_t* val, const std::int32_t* slack,
                          const std::int32_t* st, const std::int32_t* s,
                          std::size_t lo, std::size_t hi, std::int64_t d);
};

extern const KernelTable kScalarKernels;
#if MCHARGE_SIMD_X86
extern const KernelTable kAvx2Kernels;  // defined in simd_avx2.cpp
#endif

}  // namespace mcharge::simd::detail
