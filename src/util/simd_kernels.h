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

struct KernelTable {
  void (*distance_row)(const double* xs, const double* ys, std::size_t n,
                       double px, double py, double* out);
  ArgMin (*argmin_masked)(const double* values, const unsigned char* skip,
                          std::size_t n);
  ArgMin (*argmin_distance_masked)(const double* xs, const double* ys,
                                   std::size_t n, double px, double py,
                                   const unsigned char* skip);
  double (*min_reduce)(const double* values, std::size_t n);
  double (*max_reduce)(const double* values, std::size_t n);
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
  std::size_t (*select_within)(const double* xs, const double* ys,
                               std::size_t n, double cx, double cy, double r2,
                               const std::uint32_t* ids, std::uint32_t* out);
  double (*crossing_min)(const double* level, const double* as_of,
                         const double* draw, std::size_t n, double threshold,
                         double eps);
  std::size_t (*advance_select_below)(double* level, double* as_of,
                                      double* dead_since, const double* draw,
                                      std::size_t n, double t,
                                      double threshold,
                                      const std::uint32_t* ids,
                                      std::uint32_t* out);
  std::int64_t (*i64_min_where)(const std::int64_t* lab,
                                const std::int32_t* state, std::int32_t want,
                                std::size_t lo, std::size_t hi);
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
  std::size_t (*price_scan)(const double* xs, const double* ys, std::size_t n,
                            double px, double py, double bound,
                            const double* adj, const std::uint32_t* ids,
                            std::uint32_t* out);
};

extern const KernelTable kScalarKernels;
#if MCHARGE_SIMD_X86
extern const KernelTable kAvx2Kernels;  // defined in simd_avx2.cpp
#endif

}  // namespace mcharge::simd::detail
