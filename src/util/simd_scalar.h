// Scalar one-element forms of the first-hit scans in util/simd.h.
//
// or_opt_hit is the loop body of the scalar reference kernel
// scalar_or_opt_scan (simd.cpp), shared with callers that test single
// elements and would otherwise pay a dispatched kernel call per element.
// The per-ISA TUs must not include this header (simd_kernels.h's rule on
// inline FP functions); they keep their own scalar tails.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

#include "util/simd_kernels.h"

namespace mcharge::simd {

/// Squared-distance prefilter floor for `speed` (simd_kernels.h): +inf
/// turns the filter off outside the speed range its proof covers.
inline double prefilter_floor(double speed) {
  return speed >= detail::kPrefilterMinSpeed &&
                 speed <= detail::kPrefilterMaxSpeed
             ? detail::kPrefilterFloor
             : std::numeric_limits<double>::infinity();
}

/// Prefilter bound B for right-hand side r (simd_kernels.h): an element
/// with fl(qa + qb) > B is provably not a hit.
inline double prefilter_bound(double r, double speed, double floor) {
  const double t = r * speed;
  const double b = t * t * detail::kPrefilterWiden;
  return b > floor ? b : floor;
}

/// Element k of or_opt_scan: true iff it is a hit, evaluated with exactly
/// the scan's operation sequence. `floor` is prefilter_floor(speed).
inline bool or_opt_hit(const double* px, const double* py, const double* tc,
                       std::size_t k, double ix, double iy, double ex,
                       double ey, double speed, double threshold,
                       double floor) {
  const double dax = px[k] - ix;
  const double day = py[k] - iy;
  const double qa = dax * dax + day * day;
  const double dbx = ex - px[k + 1];
  const double dby = ey - py[k + 1];
  const double qb = dbx * dbx + dby * dby;
  // Not a hit (prefilter proof in simd_kernels.h): skip sqrt and divides.
  if (qa + qb > prefilter_bound(threshold + tc[k], speed, floor)) {
    return false;
  }
  const double cost = std::sqrt(qa) / speed + std::sqrt(qb) / speed - tc[k];
  return cost < threshold;
}

}  // namespace mcharge::simd
