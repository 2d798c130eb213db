#include "util/simd.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/simd_kernels.h"
#include "util/simd_scalar.h"

namespace mcharge::simd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Scalar reference kernels -------------------------------------------
// These ARE the determinism contract: every vector backend must reproduce
// them bit for bit. Each loop body performs the exact operation sequence
// of the code the kernel replaced (see the call sites in tsp/, sim/ and
// matching/blossom_core.h).

void scalar_distance_row(const double* xs, const double* ys, std::size_t n,
                         double px, double py, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = px - xs[i];
    const double dy = py - ys[i];
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

std::size_t scalar_prim_relax_pick(const double* xs, const double* ys,
                                  double* best, std::uint32_t* parent,
                                  const std::uint32_t* ids, std::size_t n,
                                  double px, double py, std::uint32_t added) {
  std::size_t pick = kNpos;
  double pick_cost = kInf;
  std::uint32_t pick_id = UINT32_MAX;
  for (std::size_t r = 0; r < n; ++r) {
    const double dx = px - xs[r];
    const double dy = py - ys[r];
    const double w = std::sqrt(dx * dx + dy * dy);
    if (w < best[r]) {
      best[r] = w;
      parent[r] = added;
    }
    if (best[r] < pick_cost || (best[r] == pick_cost && ids[r] < pick_id)) {
      pick_cost = best[r];
      pick_id = ids[r];
      pick = r;
    }
  }
  return pick_cost < kInf ? pick : kNpos;
}

std::size_t scalar_two_opt_scan(const double* px, const double* py,
                                const double* tc, std::size_t j_begin,
                                std::size_t j_end, double ax, double ay,
                                double bx, double by, double speed,
                                double base, double min_gain) {
  const double floor = prefilter_floor(speed);
  for (std::size_t j = j_begin; j < j_end; ++j) {
    const double dax = ax - px[j];
    const double day = ay - py[j];
    const double qa = dax * dax + day * day;
    const double dbx = bx - px[j + 1];
    const double dby = by - py[j + 1];
    const double qb = dbx * dbx + dby * dby;
    const double before = base + tc[j];
    const double rhs = before - min_gain;
    // Not a hit (prefilter proof in simd_kernels.h): skip sqrt and divides.
    if (qa + qb > prefilter_bound(rhs, speed, floor)) continue;
    const double after = std::sqrt(qa) / speed + std::sqrt(qb) / speed;
    if (after < rhs) return j;
  }
  return kNpos;
}

std::size_t scalar_or_opt_scan(const double* px, const double* py,
                               const double* tc, std::size_t k_begin,
                               std::size_t k_end, double ix, double iy,
                               double ex, double ey, double speed,
                               double threshold) {
  const double floor = prefilter_floor(speed);
  for (std::size_t k = k_begin; k < k_end; ++k) {
    if (or_opt_hit(px, py, tc, k, ix, iy, ex, ey, speed, threshold, floor)) {
      return k;
    }
  }
  return kNpos;
}

double scalar_crossing_min(const double* level, const double* as_of,
                           const double* draw, std::size_t n,
                           double threshold, double eps) {
  double best = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    double c;
    if (level[i] < threshold) {
      c = as_of[i];
    } else if (draw[i] <= 0.0) {
      c = kInf;
    } else {
      c = as_of[i] + (level[i] - threshold) / draw[i] + eps;
    }
    if (c < best) best = c;
  }
  return best;
}

std::size_t scalar_advance_select_below(double* level, double* as_of,
                                        double* dead_since,
                                        const double* draw, std::size_t n,
                                        double t, double threshold,
                                        const std::uint32_t* ids,
                                        std::uint32_t* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    advance_drain(level[i], as_of[i], dead_since[i], draw[i], t);
    if (level[i] < threshold) out[count++] = ids[i];
  }
  return count;
}

void scalar_i64_dual_apply(std::int64_t* lab, const std::int32_t* state,
                           std::size_t lo, std::size_t hi, std::int64_t d) {
  for (std::size_t i = lo; i < hi; ++i) {
    if (state[i] == 0) {
      lab[i] -= d;
    } else if (state[i] == 1) {
      lab[i] += d;
    }
  }
}

std::int64_t scalar_i64_slack_bound(const std::int64_t* val,
                                    const std::int32_t* slack,
                                    const std::int32_t* st,
                                    const std::int32_t* s, std::size_t lo,
                                    std::size_t hi) {
  std::int64_t best = kI64Max;
  for (std::size_t i = lo; i < hi; ++i) {
    if (st[i] != static_cast<std::int32_t>(i) || slack[i] == 0) continue;
    std::int64_t c;
    if (s[i] == -1) {
      c = val[i];
    } else if (s[i] == 0) {
      c = val[i] >> 1;  // val >= 0, so >> 1 == / 2
    } else {
      continue;
    }
    if (c < best) best = c;
  }
  return best;
}

void scalar_i64_slack_shift(std::int64_t* val, const std::int32_t* slack,
                            const std::int32_t* st, const std::int32_t* s,
                            std::size_t lo, std::size_t hi, std::int64_t d) {
  for (std::size_t i = lo; i < hi; ++i) {
    if (st[i] != static_cast<std::int32_t>(i) || slack[i] == 0) continue;
    if (s[i] == -1) {
      val[i] -= d;
    } else if (s[i] == 0) {
      val[i] -= 2 * d;
    }
  }
}

// --- Dispatch ------------------------------------------------------------

const detail::KernelTable* table_for(Backend backend) {
  switch (backend) {
#if MCHARGE_SIMD_X86
    case Backend::kAvx2:
      return &detail::kAvx2Kernels;
#endif
    default:
      return &detail::kScalarKernels;
  }
}

Backend hardware_best() {
#if MCHARGE_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
#endif
  return Backend::kScalar;
}

/// MCHARGE_SIMD=scalar caps the backend from the environment (it can only
/// lower, never enable something the CPU lacks).
Backend env_capped(Backend best) {
  const char* env = std::getenv("MCHARGE_SIMD");
  if (env != nullptr && std::string(env) == "scalar") return Backend::kScalar;
  return best;
}

struct Dispatch {
  Backend best;
  Backend active;
  const detail::KernelTable* table;

  Dispatch() {
    best = env_capped(hardware_best());
    active = best;
    table = table_for(active);
  }
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

}  // namespace

namespace detail {
const KernelTable kScalarKernels = {
    scalar_distance_row,   scalar_prim_relax_pick, scalar_two_opt_scan,
    scalar_or_opt_scan,    scalar_crossing_min,    scalar_advance_select_below,
    scalar_i64_dual_apply, scalar_i64_slack_bound, scalar_i64_slack_shift,
};
}  // namespace detail

Backend best_backend() { return dispatch().best; }

Backend active_backend() { return dispatch().active; }

Backend set_backend(Backend backend) {
  Dispatch& d = dispatch();
  const Backend clamped =
      static_cast<int>(backend) <= static_cast<int>(d.best) ? backend : d.best;
  d.active = clamped;
  d.table = table_for(clamped);
  return d.active;
}

const char* backend_name(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

void distance_row(const double* xs, const double* ys, std::size_t n,
                  double px, double py, double* out) {
  dispatch().table->distance_row(xs, ys, n, px, py, out);
}

std::size_t prim_relax_pick(const double* xs, const double* ys, double* best,
                            std::uint32_t* parent, const std::uint32_t* ids,
                            std::size_t n, double px, double py,
                            std::uint32_t added) {
  return dispatch().table->prim_relax_pick(xs, ys, best, parent, ids, n, px,
                                           py, added);
}

std::size_t two_opt_scan(const double* px, const double* py, const double* tc,
                         std::size_t j_begin, std::size_t j_end, double ax,
                         double ay, double bx, double by, double speed,
                         double base, double min_gain) {
  return dispatch().table->two_opt_scan(px, py, tc, j_begin, j_end, ax, ay,
                                        bx, by, speed, base, min_gain);
}

std::size_t or_opt_scan(const double* px, const double* py, const double* tc,
                        std::size_t k_begin, std::size_t k_end, double ix,
                        double iy, double ex, double ey, double speed,
                        double threshold) {
  return dispatch().table->or_opt_scan(px, py, tc, k_begin, k_end, ix, iy, ex,
                                       ey, speed, threshold);
}

double crossing_min(const double* level, const double* as_of,
                    const double* draw, std::size_t n, double threshold,
                    double eps) {
  return dispatch().table->crossing_min(level, as_of, draw, n, threshold,
                                        eps);
}

std::size_t advance_select_below(double* level, double* as_of,
                                 double* dead_since, const double* draw,
                                 std::size_t n, double t, double threshold,
                                 const std::uint32_t* ids,
                                 std::uint32_t* out) {
  return dispatch().table->advance_select_below(level, as_of, dead_since,
                                                draw, n, t, threshold, ids,
                                                out);
}

void i64_dual_apply(std::int64_t* lab, const std::int32_t* state,
                    std::size_t lo, std::size_t hi, std::int64_t d) {
  dispatch().table->i64_dual_apply(lab, state, lo, hi, d);
}

std::int64_t i64_slack_bound(const std::int64_t* val, const std::int32_t* slack,
                             const std::int32_t* st, const std::int32_t* s,
                             std::size_t lo, std::size_t hi) {
  return dispatch().table->i64_slack_bound(val, slack, st, s, lo, hi);
}

void i64_slack_shift(std::int64_t* val, const std::int32_t* slack,
                     const std::int32_t* st, const std::int32_t* s,
                     std::size_t lo, std::size_t hi, std::int64_t d) {
  dispatch().table->i64_slack_shift(val, slack, st, s, lo, hi, d);
}

}  // namespace mcharge::simd
