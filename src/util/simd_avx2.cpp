// AVX2 (4 x double) backend. Compiled with -mavx2 -ffp-contract=off; see
// simd_kernels.h for why this TU must stay free of repo headers.
//
// Bitwise identity with the scalar backend: every lane performs the same
// mul / add / div / sqrt sequence as the scalar loop (all IEEE-754
// correctly rounded, no FMA), every min reduction returns a value only
// (order-independent for non-NaN input) or, in the Prim pick, the
// lexicographic minimum of unique (weight, id) pairs (order-independent
// too), and the first-hit scans return the lowest hit index exactly like
// a sequential scan.
#include "util/simd_kernels.h"

#if MCHARGE_SIMD_X86

#include <immintrin.h>

#include <cmath>
#include <limits>

namespace mcharge::simd::detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline __m256d dist4(__m256d xs, __m256d ys, __m256d px, __m256d py) {
  const __m256d dx = _mm256_sub_pd(px, xs);
  const __m256d dy = _mm256_sub_pd(py, ys);
  return _mm256_sqrt_pd(
      _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
}

void avx2_distance_row(const double* xs, const double* ys, std::size_t n,
                       double px, double py, double* out) {
  const __m256d vpx = _mm256_set1_pd(px);
  const __m256d vpy = _mm256_set1_pd(py);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, dist4(_mm256_loadu_pd(xs + i),
                                    _mm256_loadu_pd(ys + i), vpx, vpy));
  }
  for (; i < n; ++i) {
    const double dx = px - xs[i];
    const double dy = py - ys[i];
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

// Per lane, the best (best, id) pair seen so far in lexicographic order;
// a slot's pair replaces it on a strictly smaller best, or an equal best
// with a smaller id. Ids are unique, so the lanes reduce to one pair
// whatever the order, and an inf or NaN best never beats a finite one.
// The relax is branch-free (blend and store every block): which lanes
// relax is data-dependent, and branching on it mispredicted often enough
// in Appro's calls to cost more than the stores.
std::size_t avx2_prim_relax_pick(const double* xs, const double* ys,
                                 double* best, std::uint32_t* parent,
                                 const std::uint32_t* ids, std::size_t n,
                                 double px, double py, std::uint32_t added) {
  std::size_t pick = kNpos;
  double pick_cost = kInf;
  std::int64_t pick_id = INT64_MAX;
  std::size_t r = 0;
  if (n >= 4) {
    const __m256d vpx = _mm256_set1_pd(px);
    const __m256d vpy = _mm256_set1_pd(py);
    const __m256i step = _mm256_set1_epi64x(4);
    // Picks the low 32 bits of each 64-bit lane: a relax mask for 4 ids.
    const __m256i narrow = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    const __m128i vadded = _mm_set1_epi32(static_cast<int>(added));
    __m256i slot = _mm256_setr_epi64x(0, 1, 2, 3);
    __m256d min_cost = _mm256_set1_pd(kInf);
    __m256i min_id = _mm256_set1_epi64x(INT64_MAX);
    __m256i min_slot = _mm256_set1_epi64x(-1);
    for (; r + 4 <= n; r += 4, slot = _mm256_add_epi64(slot, step)) {
      const __m256d w = dist4(_mm256_loadu_pd(xs + r),
                              _mm256_loadu_pd(ys + r), vpx, vpy);
      const __m256d old_best = _mm256_loadu_pd(best + r);
      const __m256d relax = _mm256_cmp_pd(w, old_best, _CMP_LT_OQ);
      const __m256d b = _mm256_blendv_pd(old_best, w, relax);
      _mm256_storeu_pd(best + r, b);
      const __m128i relax32 = _mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(_mm256_castpd_si256(relax), narrow));
      __m128i* const par = reinterpret_cast<__m128i*>(parent + r);
      _mm_storeu_si128(
          par, _mm_blendv_epi8(_mm_loadu_si128(par), vadded, relax32));
      const __m256i id = _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + r)));
      const __m256d tie = _mm256_and_pd(
          _mm256_cmp_pd(b, min_cost, _CMP_EQ_OQ),
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(min_id, id)));
      const __m256d take =
          _mm256_or_pd(_mm256_cmp_pd(b, min_cost, _CMP_LT_OQ), tie);
      const __m256i take_i = _mm256_castpd_si256(take);
      min_cost = _mm256_blendv_pd(min_cost, b, take);
      min_id = _mm256_blendv_epi8(min_id, id, take_i);
      min_slot = _mm256_blendv_epi8(min_slot, slot, take_i);
    }
    alignas(32) double lane_cost[4];
    alignas(32) std::int64_t lane_id[4];
    alignas(32) std::int64_t lane_slot[4];
    _mm256_store_pd(lane_cost, min_cost);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_id), min_id);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_slot), min_slot);
    for (int lane = 0; lane < 4; ++lane) {
      if (lane_cost[lane] < pick_cost ||
          (lane_cost[lane] == pick_cost && lane_id[lane] < pick_id)) {
        pick_cost = lane_cost[lane];
        pick_id = lane_id[lane];
        pick = static_cast<std::size_t>(lane_slot[lane]);
      }
    }
  }
  for (; r < n; ++r) {
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

// Squared-distance prefilter (proof in simd_kernels.h): per lane,
// B = max(fl(fl(t*t) * widen), floor) with t = fl(r*speed). Lanes with
// fl(qa + qb) > B are provably not hits.
inline __m256d prefilter_bound4(__m256d r, __m256d vspeed, __m256d vwiden,
                                __m256d vfloor) {
  const __m256d t = _mm256_mul_pd(r, vspeed);
  return _mm256_max_pd(_mm256_mul_pd(_mm256_mul_pd(t, t), vwiden), vfloor);
}

inline double prefilter_floor(double speed) {
  return speed >= kPrefilterMinSpeed && speed <= kPrefilterMaxSpeed
             ? kPrefilterFloor
             : kInf;
}

// Scalar-tail form of prefilter_bound4 (no std::max: this TU must not
// instantiate shared inline templates, see simd_kernels.h).
inline double prefilter_bound(double r, double speed, double floor) {
  const double t = r * speed;
  const double b = t * t * kPrefilterWiden;
  return b > floor ? b : floor;
}

inline __m256d sq4(__m256d dx, __m256d dy) {
  return _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
}

// Soundness: a block whose four lanes all fail the prefilter holds no
// hit, so skipping it leaves the first hit where it was; a block with any
// passing lane runs the exact expression on all four lanes.
std::size_t avx2_two_opt_scan(const double* px, const double* py,
                              const double* tc, std::size_t j_begin,
                              std::size_t j_end, double ax, double ay,
                              double bx, double by, double speed, double base,
                              double min_gain) {
  const double floor = prefilter_floor(speed);
  const __m256d vax = _mm256_set1_pd(ax), vay = _mm256_set1_pd(ay);
  const __m256d vbx = _mm256_set1_pd(bx), vby = _mm256_set1_pd(by);
  const __m256d vspeed = _mm256_set1_pd(speed);
  const __m256d vbase = _mm256_set1_pd(base);
  const __m256d vgain = _mm256_set1_pd(min_gain);
  const __m256d vwiden = _mm256_set1_pd(kPrefilterWiden);
  const __m256d vfloor = _mm256_set1_pd(floor);
  std::size_t j = j_begin;
  for (; j + 4 <= j_end; j += 4) {
    // dist4's operand order: dx = a - P[j], dy = b - P[j+1].
    const __m256d qa = sq4(_mm256_sub_pd(vax, _mm256_loadu_pd(px + j)),
                           _mm256_sub_pd(vay, _mm256_loadu_pd(py + j)));
    const __m256d qb =
        sq4(_mm256_sub_pd(vbx, _mm256_loadu_pd(px + j + 1)),
            _mm256_sub_pd(vby, _mm256_loadu_pd(py + j + 1)));
    const __m256d before = _mm256_add_pd(vbase, _mm256_loadu_pd(tc + j));
    const __m256d rhs = _mm256_sub_pd(before, vgain);
    const __m256d bound = prefilter_bound4(rhs, vspeed, vwiden, vfloor);
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_add_pd(qa, qb), bound,
                                         _CMP_GT_OQ)) == 0xF) {
      continue;
    }
    const __m256d after =
        _mm256_add_pd(_mm256_div_pd(_mm256_sqrt_pd(qa), vspeed),
                      _mm256_div_pd(_mm256_sqrt_pd(qb), vspeed));
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(after, rhs, _CMP_LT_OQ));
    if (mask != 0) return j + static_cast<std::size_t>(__builtin_ctz(mask));
  }
  for (; j < j_end; ++j) {
    const double dax = ax - px[j];
    const double day = ay - py[j];
    const double qa = dax * dax + day * day;
    const double dbx = bx - px[j + 1];
    const double dby = by - py[j + 1];
    const double qb = dbx * dbx + dby * dby;
    const double rhs = (base + tc[j]) - min_gain;
    if (qa + qb > prefilter_bound(rhs, speed, floor)) continue;
    const double after = std::sqrt(qa) / speed + std::sqrt(qb) / speed;
    if (after < rhs) return j;
  }
  return kNpos;
}

// Soundness: as avx2_two_opt_scan, with r = fl(threshold + tc[k]).
std::size_t avx2_or_opt_scan(const double* px, const double* py,
                             const double* tc, std::size_t k_begin,
                             std::size_t k_end, double ix, double iy,
                             double ex, double ey, double speed,
                             double threshold) {
  const double floor = prefilter_floor(speed);
  const __m256d vix = _mm256_set1_pd(ix), viy = _mm256_set1_pd(iy);
  const __m256d vex = _mm256_set1_pd(ex), vey = _mm256_set1_pd(ey);
  const __m256d vspeed = _mm256_set1_pd(speed);
  const __m256d vthresh = _mm256_set1_pd(threshold);
  const __m256d vwiden = _mm256_set1_pd(kPrefilterWiden);
  const __m256d vfloor = _mm256_set1_pd(floor);
  std::size_t k = k_begin;
  for (; k + 4 <= k_end; k += 4) {
    // dist(P[k], seg front): dx = px[k] - ix; dist4's order for the rest.
    const __m256d qa = sq4(_mm256_sub_pd(_mm256_loadu_pd(px + k), vix),
                           _mm256_sub_pd(_mm256_loadu_pd(py + k), viy));
    const __m256d qb =
        sq4(_mm256_sub_pd(vex, _mm256_loadu_pd(px + k + 1)),
            _mm256_sub_pd(vey, _mm256_loadu_pd(py + k + 1)));
    const __m256d vtc = _mm256_loadu_pd(tc + k);
    const __m256d bound = prefilter_bound4(_mm256_add_pd(vthresh, vtc),
                                           vspeed, vwiden, vfloor);
    if (_mm256_movemask_pd(_mm256_cmp_pd(_mm256_add_pd(qa, qb), bound,
                                         _CMP_GT_OQ)) == 0xF) {
      continue;
    }
    const __m256d cost = _mm256_sub_pd(
        _mm256_add_pd(_mm256_div_pd(_mm256_sqrt_pd(qa), vspeed),
                      _mm256_div_pd(_mm256_sqrt_pd(qb), vspeed)),
        vtc);
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(cost, vthresh, _CMP_LT_OQ));
    if (mask != 0) return k + static_cast<std::size_t>(__builtin_ctz(mask));
  }
  for (; k < k_end; ++k) {
    const double dax = px[k] - ix;
    const double day = py[k] - iy;
    const double qa = dax * dax + day * day;
    const double dbx = ex - px[k + 1];
    const double dby = ey - py[k + 1];
    const double qb = dbx * dbx + dby * dby;
    if (qa + qb > prefilter_bound(threshold + tc[k], speed, floor)) continue;
    const double cost = std::sqrt(qa) / speed + std::sqrt(qb) / speed - tc[k];
    if (cost < threshold) return k;
  }
  return kNpos;
}

double avx2_crossing_min(const double* level, const double* as_of,
                         const double* draw, std::size_t n, double threshold,
                         double eps) {
  double best = kInf;
  std::size_t i = 0;
  if (n >= 4) {
    const __m256d inf = _mm256_set1_pd(kInf);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d vthr = _mm256_set1_pd(threshold);
    const __m256d veps = _mm256_set1_pd(eps);
    __m256d acc = inf;
    for (; i + 4 <= n; i += 4) {
      const __m256d lvl = _mm256_loadu_pd(level + i);
      const __m256d at = _mm256_loadu_pd(as_of + i);
      const __m256d drw = _mm256_loadu_pd(draw + i);
      // as_of + (level - threshold) / draw + eps, with the scalar's
      // operation order (two separate adds, no FMA).
      const __m256d c0 = _mm256_add_pd(
          _mm256_add_pd(at, _mm256_div_pd(_mm256_sub_pd(lvl, vthr), drw)),
          veps);
      // draw <= 0 lanes never cross; level < threshold lanes cross "now".
      // Both blends run before the min so no NaN (0/0 above) survives.
      const __m256d nodraw = _mm256_cmp_pd(drw, zero, _CMP_LE_OQ);
      const __m256d below = _mm256_cmp_pd(lvl, vthr, _CMP_LT_OQ);
      __m256d c = _mm256_blendv_pd(c0, inf, nodraw);
      c = _mm256_blendv_pd(c, at, below);
      acc = _mm256_min_pd(acc, c);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    for (double v : lanes) {
      if (v < best) best = v;
    }
  }
  for (; i < n; ++i) {
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

std::size_t avx2_advance_select_below(double* level, double* as_of,
                                      double* dead_since, const double* draw,
                                      std::size_t n, double t,
                                      double threshold,
                                      const std::uint32_t* ids,
                                      std::uint32_t* out) {
  std::size_t count = 0;
  std::size_t i = 0;
  if (n >= 4) {
    const __m256d inf = _mm256_set1_pd(kInf);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d vt = _mm256_set1_pd(t);
    const __m256d vthr = _mm256_set1_pd(threshold);
    for (; i + 4 <= n; i += 4) {
      const __m256d lvl = _mm256_loadu_pd(level + i);
      const __m256d at = _mm256_loadu_pd(as_of + i);
      const __m256d drw = _mm256_loadu_pd(draw + i);
      const __m256d dsi = _mm256_loadu_pd(dead_since + i);
      const __m256d adv = _mm256_cmp_pd(vt, at, _CMP_GT_OQ);
      const __m256d drained = _mm256_mul_pd(drw, _mm256_sub_pd(vt, at));
      // Death: the drain empties the battery on an advancing lane with a
      // positive draw. Division garbage in non-dead lanes is blended away.
      const __m256d dead = _mm256_and_pd(
          _mm256_and_pd(_mm256_cmp_pd(drained, lvl, _CMP_GE_OQ),
                        _mm256_cmp_pd(drw, zero, _CMP_GT_OQ)),
          adv);
      const __m256d newly =
          _mm256_and_pd(dead, _mm256_cmp_pd(dsi, inf, _CMP_EQ_OQ));
      const __m256d death_t = _mm256_add_pd(at, _mm256_div_pd(lvl, drw));
      _mm256_storeu_pd(dead_since + i,
                       _mm256_blendv_pd(dsi, death_t, newly));
      __m256d new_lvl = _mm256_blendv_pd(_mm256_sub_pd(lvl, drained), zero,
                                         dead);
      new_lvl = _mm256_blendv_pd(lvl, new_lvl, adv);
      _mm256_storeu_pd(level + i, new_lvl);
      _mm256_storeu_pd(as_of + i, _mm256_blendv_pd(at, vt, adv));
      int mask =
          _mm256_movemask_pd(_mm256_cmp_pd(new_lvl, vthr, _CMP_LT_OQ));
      while (mask != 0) {
        const int lane = __builtin_ctz(mask);
        out[count++] = ids[i + static_cast<std::size_t>(lane)];
        mask &= mask - 1;
      }
    }
  }
  for (; i < n; ++i) {
    if (t > as_of[i]) {
      const double drained = draw[i] * (t - as_of[i]);
      if (drained >= level[i] && draw[i] > 0.0) {
        if (dead_since[i] == kInf) {
          dead_since[i] = as_of[i] + level[i] / draw[i];
        }
        level[i] = 0.0;
      } else {
        level[i] -= drained;
      }
      as_of[i] = t;
    }
    if (level[i] < threshold) out[count++] = ids[i];
  }
  return count;
}

// --- Blossom dual-adjustment kernels (all-integer, trivially bitwise) ----

constexpr std::int64_t kI64MaxLocal = INT64_MAX;

/// Widens 4 x int32 at p + i to 4 x int64 lanes.
inline __m256i load_i32x4(const std::int32_t* p, std::size_t i) {
  return _mm256_cvtepi32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i)));
}

/// Lane-wise signed 64-bit min (AVX2 has no vpminsq; emulate via compare
/// + blend — exact for all values).
inline __m256i min_epi64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

void avx2_i64_dual_apply(std::int64_t* lab, const std::int32_t* state,
                         std::size_t lo, std::size_t hi, std::int64_t d) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i vd = _mm256_set1_epi64x(d);
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256i st4 = load_i32x4(state, i);
    const __m256i sub = _mm256_and_si256(_mm256_cmpeq_epi64(st4, zero), vd);
    const __m256i add = _mm256_and_si256(_mm256_cmpeq_epi64(st4, one), vd);
    __m256i val = _mm256_loadu_si256(reinterpret_cast<__m256i*>(lab + i));
    val = _mm256_sub_epi64(_mm256_add_epi64(val, add), sub);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lab + i), val);
  }
  for (; i < hi; ++i) {
    if (state[i] == 0) {
      lab[i] -= d;
    } else if (state[i] == 1) {
      lab[i] += d;
    }
  }
}

std::int64_t avx2_i64_slack_bound(const std::int64_t* val,
                                  const std::int32_t* slack,
                                  const std::int32_t* st,
                                  const std::int32_t* s, std::size_t lo,
                                  std::size_t hi) {
  std::int64_t best = kI64MaxLocal;
  std::size_t i = lo;
  if (i + 4 <= hi) {
    const __m256i vmax = _mm256_set1_epi64x(kI64MaxLocal);
    const __m256i zero = _mm256_setzero_si256();
    const __m256i minus1 = _mm256_set1_epi64x(-1);
    const __m256i step = _mm256_set1_epi64x(4);
    __m256i idx = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<std::int64_t>(i)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    __m256i acc = vmax;
    for (; i + 4 <= hi; i += 4, idx = _mm256_add_epi64(idx, step)) {
      const __m256i live = _mm256_andnot_si256(
          _mm256_cmpeq_epi64(load_i32x4(slack, i), zero),
          _mm256_cmpeq_epi64(load_i32x4(st, i), idx));
      const __m256i sv = load_i32x4(s, i);
      const __m256i free_m = _mm256_and_si256(live,
                                              _mm256_cmpeq_epi64(sv, minus1));
      const __m256i outer_m = _mm256_and_si256(live,
                                               _mm256_cmpeq_epi64(sv, zero));
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(val + i));
      // Contributing lanes are non-negative, so the logical shift is the
      // arithmetic halving of the scalar reference.
      const __m256i half = _mm256_srli_epi64(v, 1);
      __m256i cand = _mm256_blendv_epi8(vmax, v, free_m);
      cand = _mm256_blendv_epi8(cand, half, outer_m);
      acc = min_epi64(acc, cand);
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (std::int64_t v : lanes) {
      if (v < best) best = v;
    }
  }
  for (; i < hi; ++i) {
    if (st[i] != static_cast<std::int32_t>(i) || slack[i] == 0) continue;
    std::int64_t c;
    if (s[i] == -1) {
      c = val[i];
    } else if (s[i] == 0) {
      c = val[i] >> 1;
    } else {
      continue;
    }
    if (c < best) best = c;
  }
  return best;
}

void avx2_i64_slack_shift(std::int64_t* val, const std::int32_t* slack,
                          const std::int32_t* st, const std::int32_t* s,
                          std::size_t lo, std::size_t hi, std::int64_t d) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i minus1 = _mm256_set1_epi64x(-1);
  const __m256i vd = _mm256_set1_epi64x(d);
  const __m256i vd2 = _mm256_set1_epi64x(2 * d);
  const __m256i step = _mm256_set1_epi64x(4);
  std::size_t i = lo;
  __m256i idx = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<std::int64_t>(i)),
      _mm256_setr_epi64x(0, 1, 2, 3));
  for (; i + 4 <= hi; i += 4, idx = _mm256_add_epi64(idx, step)) {
    const __m256i live = _mm256_andnot_si256(
        _mm256_cmpeq_epi64(load_i32x4(slack, i), zero),
        _mm256_cmpeq_epi64(load_i32x4(st, i), idx));
    const __m256i sv = load_i32x4(s, i);
    const __m256i sub1 = _mm256_and_si256(
        _mm256_and_si256(live, _mm256_cmpeq_epi64(sv, minus1)), vd);
    const __m256i sub2 = _mm256_and_si256(
        _mm256_and_si256(live, _mm256_cmpeq_epi64(sv, zero)), vd2);
    __m256i v = _mm256_loadu_si256(reinterpret_cast<__m256i*>(val + i));
    v = _mm256_sub_epi64(_mm256_sub_epi64(v, sub1), sub2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(val + i), v);
  }
  for (; i < hi; ++i) {
    if (st[i] != static_cast<std::int32_t>(i) || slack[i] == 0) continue;
    if (s[i] == -1) {
      val[i] -= d;
    } else if (s[i] == 0) {
      val[i] -= 2 * d;
    }
  }
}

}  // namespace

const KernelTable kAvx2Kernels = {
    avx2_distance_row,     avx2_prim_relax_pick, avx2_two_opt_scan,
    avx2_or_opt_scan,      avx2_crossing_min,    avx2_advance_select_below,
    avx2_i64_dual_apply,   avx2_i64_slack_bound, avx2_i64_slack_shift,
};

}  // namespace mcharge::simd::detail

#endif  // MCHARGE_SIMD_X86
