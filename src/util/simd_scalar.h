// Scalar one-element forms of the scans in util/simd.h.
//
// or_opt_hit is the loop body of the scalar reference kernel
// scalar_or_opt_scan (simd.cpp), and advance_drain the per-element update
// of scalar_advance_select_below. Both are shared with callers that touch
// single elements and would otherwise pay a dispatched kernel call per
// element.
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

/// Element update of advance_select_below: advances one sensor's lazy
/// drain state to time t (a no-op unless t > as_of). A drain that empties
/// the battery records the first death instant and clamps the level at
/// zero.
inline void advance_drain(double& level, double& as_of, double& dead_since,
                          double draw, double t) {
  if (t > as_of) {
    const double drained = draw * (t - as_of);
    if (drained >= level && draw > 0.0) {
      if (dead_since == std::numeric_limits<double>::infinity()) {
        dead_since = as_of + level / draw;
      }
      level = 0.0;
    } else {
      level -= drained;
    }
    as_of = t;
  }
}

}  // namespace mcharge::simd
