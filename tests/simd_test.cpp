// Kernel-vs-scalar equivalence for util/simd.h.
//
// The claim under test is BITWISE identity: for every backend the build
// supports (scalar always; AVX2 when the CPU has it), each
// kernel must return exactly the bits of a naive scalar loop written
// against the documented operation sequence — including lowest-index
// first hits, odd tail lengths, and empty inputs. The
// final test closes the loop end to end: a full Appro plan must be
// identical under every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/appro.h"
#include "schedule/execute.h"
#include "util/rng.h"
#include "util/simd.h"

#include "simd_backends.h"

namespace mcharge {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const std::vector<std::size_t> kLengths = {0,  1,  2,  3,  4,  5,   7,  8,
                                           9,  15, 16, 17, 31, 32,  33, 64,
                                           100};

double dist(double x1, double y1, double x2, double y2) {
  const double dx = x1 - x2;
  const double dy = y1 - y2;
  return std::sqrt(dx * dx + dy * dy);
}

struct Soa {
  std::vector<double> xs, ys;
};

Soa random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Soa p;
  for (std::size_t i = 0; i < n; ++i) {
    p.xs.push_back(rng.uniform(0.0, 100.0));
    p.ys.push_back(rng.uniform(0.0, 100.0));
  }
  return p;
}

TEST(Simd, ScalarBackendAlwaysAvailable) {
  BackendGuard guard(simd::Backend::kScalar);
  EXPECT_EQ(guard.active(), simd::Backend::kScalar);
  EXPECT_STREQ(simd::backend_name(simd::Backend::kScalar), "scalar");
}

#ifdef MCHARGE_NO_SIMD
TEST(Simd, NoSimdBuildPinsScalar) {
  EXPECT_EQ(simd::best_backend(), simd::Backend::kScalar);
  BackendGuard guard(simd::Backend::kAvx2);
  EXPECT_EQ(guard.active(), simd::Backend::kScalar);
}
#endif

TEST(Simd, DistanceRowMatchesScalarOnAllBackends) {
  for (std::size_t n : kLengths) {
    const Soa p = random_points(n, 100 + n);
    std::vector<double> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = dist(37.5, 42.25, p.xs[i], p.ys[i]);
    }
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      std::vector<double> out(n, -1.0);
      simd::distance_row(p.xs.data(), p.ys.data(), n, 37.5, 42.25,
                         out.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(expected[i], out[i])
            << "n=" << n << " i=" << i << " backend=" << static_cast<int>(b);
      }
    }
  }
}

/// The documented prim_relax_pick semantics as a plain loop: relax on a
/// strictly smaller distance, then the lexicographically smallest
/// (best, id) among the finite bests.
std::size_t reference_prim_relax_pick(const Soa& p, std::vector<double>& best,
                                      std::vector<std::uint32_t>& parent,
                                      const std::vector<std::uint32_t>& ids,
                                      double px, double py,
                                      std::uint32_t added) {
  std::size_t pick = simd::kNpos;
  for (std::size_t r = 0; r < best.size(); ++r) {
    const double w = dist(px, py, p.xs[r], p.ys[r]);
    if (w < best[r]) {
      best[r] = w;
      parent[r] = added;
    }
    if (!(best[r] < kInf)) continue;
    if (pick == simd::kNpos || best[r] < best[pick] ||
        (best[r] == best[pick] && ids[r] < ids[pick])) {
      pick = r;
    }
  }
  return pick;
}

TEST(Simd, PrimRelaxPickMatchesReferenceOnAllBackends) {
  // Five shapes per length: a first step (every best +inf); an integer
  // lattice where many distances tie each other and some equal best
  // exactly (an equal w must not relax); equal bests under shuffled ids
  // (the pick is the lowest id, not the lowest slot); bests at +inf mixed
  // with finite ones; and no finite best at all (kNpos).
  std::size_t checked = 0;
  for (std::size_t n = 0; n <= 100; ++n) {
    for (int shape = 0; shape < 5; ++shape) {
      Rng rng(31000 + 5 * n + static_cast<std::uint64_t>(shape));
      Soa p;
      std::vector<double> best(n, kInf);
      std::vector<std::uint32_t> parent(n), ids(n);
      const bool lattice = shape == 1 || shape == 2;
      const double px = lattice ? 2.0 : rng.uniform(0.0, 100.0);
      const double py = lattice ? 2.0 : rng.uniform(0.0, 100.0);
      for (std::size_t r = 0; r < n; ++r) {
        p.xs.push_back(lattice ? static_cast<double>(rng.below(5))
                               : rng.uniform(0.0, 100.0));
        p.ys.push_back(lattice ? static_cast<double>(rng.below(5))
                               : rng.uniform(0.0, 100.0));
        // Distinct ids in shuffled order, some near the top of the range.
        ids[r] = static_cast<std::uint32_t>(r % 3 == 0 ? UINT32_MAX - r
                                                       : 7 * r + 1);
        parent[r] = static_cast<std::uint32_t>(rng.below(1000));
      }
      rng.shuffle(ids);
      for (std::size_t r = 0; r < n; ++r) {
        const double w = dist(px, py, p.xs[r], p.ys[r]);
        if (shape == 1) {
          const std::uint64_t kind = rng.below(3);
          best[r] = kind == 0 ? w : kind == 1 ? kInf : 1.0;
        } else if (shape == 2) {
          best[r] = 0.5;  // below every nonzero lattice distance
        } else if (shape == 3) {
          best[r] = rng.below(2) == 0 ? kInf : w + rng.uniform(-1.0, 1.0);
        } else if (shape == 4) {
          p.xs[r] = kInf;  // w = +inf never relaxes a +inf best
        }
      }
      std::vector<double> want_best = best;
      std::vector<std::uint32_t> want_parent = parent;
      const std::size_t want = reference_prim_relax_pick(
          p, want_best, want_parent, ids, px, py, 4242);
      if (shape == 4 || n == 0) {
        EXPECT_EQ(want, simd::kNpos);
      }
      for (simd::Backend b : supported_backends()) {
        BackendGuard guard(b);
        std::vector<double> got_best = best;
        std::vector<std::uint32_t> got_parent = parent;
        const std::size_t got = simd::prim_relax_pick(
            p.xs.data(), p.ys.data(), got_best.data(), got_parent.data(),
            ids.data(), n, px, py, 4242);
        ASSERT_EQ(want, got) << "n=" << n << " shape=" << shape
                             << " backend=" << static_cast<int>(b);
        for (std::size_t r = 0; r < n; ++r) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(want_best[r]),
                    std::bit_cast<std::uint64_t>(got_best[r]))
              << "n=" << n << " shape=" << shape << " r=" << r;
          ASSERT_EQ(want_parent[r], got_parent[r])
              << "n=" << n << " shape=" << shape << " r=" << r;
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 505u);
}

TEST(Simd, TwoOptScanMatchesScalarLoop) {
  for (std::size_t n : {std::size_t{4}, std::size_t{9}, std::size_t{40}}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const Soa p = random_points(n + 1, 700 * n + seed);
      Rng rng(800 * n + seed);
      const double ax = rng.uniform(0.0, 100.0);
      const double ay = rng.uniform(0.0, 100.0);
      const double bx = rng.uniform(0.0, 100.0);
      const double by = rng.uniform(0.0, 100.0);
      const double speed = rng.uniform(0.5, 3.0);
      const double base = rng.uniform(0.0, 60.0);
      const double min_gain = seed % 3 == 0 ? 0.0 : 1e-9;
      const std::size_t j_begin = seed % n;
      std::vector<double> tc(n);
      for (std::size_t j = 0; j < n; ++j) {
        tc[j] = dist(p.xs[j], p.ys[j], p.xs[j + 1], p.ys[j + 1]) / speed;
      }
      std::size_t want = simd::kNpos;
      for (std::size_t j = j_begin; j < n; ++j) {
        const double da = dist(ax, ay, p.xs[j], p.ys[j]);
        const double db = dist(bx, by, p.xs[j + 1], p.ys[j + 1]);
        const double after = da / speed + db / speed;
        const double before = base + tc[j];
        if (after < before - min_gain) {
          want = j;
          break;
        }
      }
      for (simd::Backend b : supported_backends()) {
        BackendGuard guard(b);
        EXPECT_EQ(want, simd::two_opt_scan(p.xs.data(), p.ys.data(), tc.data(),
                                           j_begin, n, ax, ay, bx, by, speed,
                                           base, min_gain))
            << "n=" << n << " seed=" << seed
            << " backend=" << static_cast<int>(b);
      }
    }
  }
}

TEST(Simd, OrOptScanMatchesScalarLoop) {
  for (std::size_t n : {std::size_t{4}, std::size_t{9}, std::size_t{40}}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const Soa p = random_points(n + 1, 900 * n + seed);
      Rng rng(1000 * n + seed);
      const double ix = rng.uniform(0.0, 100.0);
      const double iy = rng.uniform(0.0, 100.0);
      const double ex = rng.uniform(0.0, 100.0);
      const double ey = rng.uniform(0.0, 100.0);
      const double speed = rng.uniform(0.5, 3.0);
      const double threshold = rng.uniform(-5.0, 30.0);
      const std::size_t k_begin = seed % n;
      std::vector<double> tc(n);
      for (std::size_t k = 0; k < n; ++k) {
        tc[k] = dist(p.xs[k], p.ys[k], p.xs[k + 1], p.ys[k + 1]) / speed;
      }
      std::size_t want = simd::kNpos;
      for (std::size_t k = k_begin; k < n; ++k) {
        const double da = dist(p.xs[k], p.ys[k], ix, iy);
        const double db = dist(ex, ey, p.xs[k + 1], p.ys[k + 1]);
        const double cost = (da / speed + db / speed) - tc[k];
        if (cost < threshold) {
          want = k;
          break;
        }
      }
      for (simd::Backend b : supported_backends()) {
        BackendGuard guard(b);
        EXPECT_EQ(want,
                  simd::or_opt_scan(p.xs.data(), p.ys.data(), tc.data(),
                                    k_begin, n, ix, iy, ex, ey, speed,
                                    threshold))
            << "n=" << n << " seed=" << seed
            << " backend=" << static_cast<int>(b);
      }
    }
  }
}

// ---- adversarial gain scans -------------------------------------------
// The 2-opt / Or-opt kernels skip lanes by an exact squared-distance
// prefilter (util/simd_kernels.h). These cases aim at its margin: lanes
// a few ulps either side of the threshold, zero-length legs (the filter
// bound is tight exactly when one distance is zero), large coordinates,
// min_gain = 0, non-positive right-hand sides, and every range length
// 0..100 from every start, so each vector body / tail split runs. Every
// backend must agree with the unfiltered loops frozen here.

std::size_t frozen_two_opt_scan(const std::vector<double>& xs,
                                const std::vector<double>& ys,
                                const std::vector<double>& tc,
                                std::size_t j_begin, std::size_t j_end,
                                double ax, double ay, double bx, double by,
                                double speed, double base, double min_gain) {
  for (std::size_t j = j_begin; j < j_end; ++j) {
    const double dax = ax - xs[j];
    const double day = ay - ys[j];
    const double da = std::sqrt(dax * dax + day * day);
    const double dbx = bx - xs[j + 1];
    const double dby = by - ys[j + 1];
    const double db = std::sqrt(dbx * dbx + dby * dby);
    const double after = da / speed + db / speed;
    const double before = base + tc[j];
    if (after < before - min_gain) return j;
  }
  return simd::kNpos;
}

std::size_t frozen_or_opt_scan(const std::vector<double>& xs,
                               const std::vector<double>& ys,
                               const std::vector<double>& tc,
                               std::size_t k_begin, std::size_t k_end,
                               double ix, double iy, double ex, double ey,
                               double speed, double threshold) {
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const double dax = xs[k] - ix;
    const double day = ys[k] - iy;
    const double da = std::sqrt(dax * dax + day * day);
    const double dbx = ex - xs[k + 1];
    const double dby = ey - ys[k + 1];
    const double db = std::sqrt(dbx * dbx + dby * dby);
    const double cost = da / speed + db / speed - tc[k];
    if (cost < threshold) return k;
  }
  return simd::kNpos;
}

double step_ulps(double x, int ulps) {
  for (; ulps > 0; --ulps) x = std::nextafter(x, kInf);
  for (; ulps < 0; ++ulps) x = std::nextafter(x, -kInf);
  return x;
}

constexpr double kAdversarialSpeeds[] = {0.3, 1.0, 5.0, 7.3};
constexpr double kAdversarialScales[] = {100.0, 1e7};

/// Points for an n-element scan (n + 1 positions). Each position is, with
/// probability 1/4 each, snapped onto `a` or onto `b`, so zero-length legs
/// appear on both the da and the db side.
Soa adversarial_points(std::size_t n, double scale, double ax, double ay,
                       double bx, double by, Rng& rng) {
  Soa p;
  for (std::size_t i = 0; i <= n; ++i) {
    double x = rng.uniform(0.0, scale);
    double y = rng.uniform(0.0, scale);
    const std::uint64_t snap = rng.below(4);
    if (snap == 0) {
      x = ax;
      y = ay;
    } else if (snap == 1) {
      x = bx;
      y = by;
    }
    p.xs.push_back(x);
    p.ys.push_back(y);
  }
  return p;
}

TEST(Simd, TwoOptScanAdversarialMatchesFrozenLoop) {
  std::uint64_t seed = 0;
  for (const double speed : kAdversarialSpeeds) {
    for (const double scale : kAdversarialScales) {
      for (std::size_t n = 0; n <= 100; ++n) {
        Rng rng(11000 + ++seed);
        const double ax = rng.uniform(0.0, scale);
        const double ay = rng.uniform(0.0, scale);
        const double bx = rng.uniform(0.0, scale);
        const double by = rng.uniform(0.0, scale);
        const Soa p = adversarial_points(n, scale, ax, ay, bx, by, rng);
        const double min_gain = n % 2 == 0 ? 0.0 : 1e-9;
        const double base = rng.uniform(0.0, scale / speed);
        std::vector<double> tc(n);
        for (std::size_t j = 0; j < n; ++j) {
          const double da = dist(ax, ay, p.xs[j], p.ys[j]);
          const double db = dist(bx, by, p.xs[j + 1], p.ys[j + 1]);
          const double after = da / speed + db / speed;
          switch (rng.below(4)) {
            case 0:  // anywhere
              tc[j] = rng.uniform(0.0, 2.0 * scale / speed);
              break;
            case 1:  // rhs = (base + tc) - min_gain <= 0
              tc[j] = -base - rng.uniform(0.0, 1.0);
              break;
            default:  // rhs within a few ulps of `after`
              tc[j] = step_ulps(after + min_gain - base,
                                static_cast<int>(rng.below(9)) - 4);
              break;
          }
        }
        for (std::size_t j_begin = 0; j_begin <= n; ++j_begin) {
          const std::size_t want =
              frozen_two_opt_scan(p.xs, p.ys, tc, j_begin, n, ax, ay, bx, by,
                                  speed, base, min_gain);
          for (simd::Backend b : supported_backends()) {
            BackendGuard guard(b);
            ASSERT_EQ(want, simd::two_opt_scan(p.xs.data(), p.ys.data(),
                                               tc.data(), j_begin, n, ax, ay,
                                               bx, by, speed, base, min_gain))
                << "speed=" << speed << " scale=" << scale << " n=" << n
                << " j_begin=" << j_begin
                << " backend=" << simd::backend_name(b);
          }
        }
      }
    }
  }
}

TEST(Simd, OrOptScanAdversarialMatchesFrozenLoop) {
  std::uint64_t seed = 0;
  for (const double speed : kAdversarialSpeeds) {
    for (const double scale : kAdversarialScales) {
      for (std::size_t n = 0; n <= 100; ++n) {
        Rng rng(12000 + ++seed);
        const double ix = rng.uniform(0.0, scale);
        const double iy = rng.uniform(0.0, scale);
        const double ex = rng.uniform(0.0, scale);
        const double ey = rng.uniform(0.0, scale);
        // P[k] snapped onto the segment front zeroes da; P[k+1] onto its
        // end zeroes db.
        const Soa p = adversarial_points(n, scale, ix, iy, ex, ey, rng);
        double threshold = 0.0;
        switch (n % 3) {
          case 0: threshold = rng.uniform(0.0, scale / speed); break;
          case 1: threshold = 0.0; break;
          default: threshold = -rng.uniform(0.0, scale / speed); break;
        }
        std::vector<double> tc(n);
        for (std::size_t k = 0; k < n; ++k) {
          const double da = dist(p.xs[k], p.ys[k], ix, iy);
          const double db = dist(ex, ey, p.xs[k + 1], p.ys[k + 1]);
          const double sum = da / speed + db / speed;
          switch (rng.below(4)) {
            case 0:  // anywhere
              tc[k] = rng.uniform(0.0, 2.0 * scale / speed);
              break;
            case 1:  // threshold + tc <= 0
              tc[k] = -threshold - rng.uniform(0.0, 1.0);
              break;
            default:  // cost within a few ulps of the threshold
              tc[k] = step_ulps(sum - threshold,
                                static_cast<int>(rng.below(9)) - 4);
              break;
          }
        }
        for (std::size_t k_begin = 0; k_begin <= n; ++k_begin) {
          const std::size_t want =
              frozen_or_opt_scan(p.xs, p.ys, tc, k_begin, n, ix, iy, ex, ey,
                                 speed, threshold);
          for (simd::Backend b : supported_backends()) {
            BackendGuard guard(b);
            ASSERT_EQ(want,
                      simd::or_opt_scan(p.xs.data(), p.ys.data(), tc.data(),
                                        k_begin, n, ix, iy, ex, ey, speed,
                                        threshold))
                << "speed=" << speed << " scale=" << scale << " n=" << n
                << " k_begin=" << k_begin
                << " backend=" << simd::backend_name(b);
          }
        }
      }
    }
  }
}

/// Random lazy-drain population exercising every kernel branch: healthy
/// sensors, zero-draw sensors, already-below-threshold sensors, and dead
/// (level 0, finite dead_since) sensors, with staggered as_of times.
struct DrainSoa {
  std::vector<double> level, as_of, dead_since, draw;
};

DrainSoa random_drain(std::size_t n, std::uint64_t seed, double threshold) {
  Rng rng(seed);
  DrainSoa s;
  for (std::size_t i = 0; i < n; ++i) {
    const double roll = rng.uniform(0.0, 1.0);
    double level = rng.uniform(threshold * 1.01, 10800.0);
    double draw = rng.uniform(0.01, 0.2);
    double dead_since = kInf;
    if (roll < 0.15) {
      level = rng.uniform(0.0, threshold * 0.99);  // already below
    } else if (roll < 0.25) {
      draw = roll < 0.2 ? 0.0 : -0.05;  // no (or negative) draw
    } else if (roll < 0.35) {
      level = 0.0;  // long dead
      dead_since = rng.uniform(0.0, 5000.0);
    }
    s.level.push_back(level);
    s.as_of.push_back(rng.uniform(0.0, 20000.0));
    s.dead_since.push_back(dead_since);
    s.draw.push_back(draw);
  }
  return s;
}

TEST(Simd, CrossingMinMatchesScalarOnAllBackends) {
  const double threshold = 2160.0;
  const double eps = 1e-6;
  for (std::size_t n : kLengths) {
    const DrainSoa s = random_drain(n, 1200 + n, threshold);
    double want = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      double c;
      if (s.level[i] < threshold) {
        c = s.as_of[i];
      } else if (s.draw[i] <= 0.0) {
        c = kInf;
      } else {
        c = s.as_of[i] + (s.level[i] - threshold) / s.draw[i] + eps;
      }
      if (c < want) want = c;
    }
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      EXPECT_EQ(want, simd::crossing_min(s.level.data(), s.as_of.data(),
                                         s.draw.data(), n, threshold, eps))
          << "n=" << n << " backend=" << static_cast<int>(b);
    }
  }
}

TEST(Simd, AdvanceSelectBelowMatchesScalarOnAllBackends) {
  const double threshold = 2160.0;
  for (std::size_t n : kLengths) {
    for (double t : {0.0, 10000.0, 60000.0, 4.0e6}) {
      const DrainSoa base = random_drain(n, 1300 + n, threshold);
      std::vector<std::uint32_t> ids(n);
      for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<std::uint32_t>(3 * i + 1);
      }
      // Scalar reference on a copy, matching the documented semantics.
      DrainSoa want = base;
      std::vector<std::uint32_t> want_out;
      for (std::size_t i = 0; i < n; ++i) {
        if (t > want.as_of[i]) {
          const double drained = want.draw[i] * (t - want.as_of[i]);
          if (drained >= want.level[i] && want.draw[i] > 0.0) {
            if (want.dead_since[i] == kInf) {
              want.dead_since[i] =
                  want.as_of[i] + want.level[i] / want.draw[i];
            }
            want.level[i] = 0.0;
          } else {
            want.level[i] -= drained;
          }
          want.as_of[i] = t;
        }
        if (want.level[i] < threshold) want_out.push_back(ids[i]);
      }
      for (simd::Backend b : supported_backends()) {
        BackendGuard guard(b);
        DrainSoa got = base;
        std::vector<std::uint32_t> out(n + 1, 0xdeadbeef);
        const std::size_t kept = simd::advance_select_below(
            got.level.data(), got.as_of.data(), got.dead_since.data(),
            got.draw.data(), n, t, threshold, ids.data(), out.data());
        ASSERT_EQ(want_out.size(), kept)
            << "n=" << n << " t=" << t << " backend=" << static_cast<int>(b);
        for (std::size_t i = 0; i < kept; ++i) EXPECT_EQ(want_out[i], out[i]);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(want.level[i], got.level[i]) << "i=" << i;
          EXPECT_EQ(want.as_of[i], got.as_of[i]) << "i=" << i;
          EXPECT_EQ(want.dead_since[i], got.dead_since[i]) << "i=" << i;
        }
      }
    }
  }
}

TEST(Simd, ApproPlanIsByteIdenticalAcrossBackends) {
  // End-to-end regression of the bitwise-identity contract: the full Appro
  // pipeline (grid queries, MIS, blossom, Christofides, 2-opt/Or-opt,
  // min-max split) must produce the same tours and the same schedule bits
  // no matter which backend served the kernels.
  Rng rng(42);
  std::vector<geom::Point> pts;
  std::vector<double> deficits;
  for (std::size_t i = 0; i < 250; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    deficits.push_back(rng.uniform(3456.0, 5400.0));
  }
  const model::ChargingProblem problem(std::move(pts), std::move(deficits),
                                       {50.0, 50.0}, 2.7, 1.0, 2);
  core::ApproScheduler appro;

  sched::ChargingPlan scalar_plan;
  double scalar_delay = 0.0;
  {
    BackendGuard guard(simd::Backend::kScalar);
    scalar_plan = appro.plan(problem);
    scalar_delay = sched::execute_plan(problem, scalar_plan).longest_delay();
  }
  for (simd::Backend b : supported_backends()) {
    BackendGuard guard(b);
    const sched::ChargingPlan plan = appro.plan(problem);
    EXPECT_EQ(scalar_plan.tours, plan.tours)
        << "backend=" << static_cast<int>(b);
    const double delay = sched::execute_plan(problem, plan).longest_delay();
    EXPECT_EQ(scalar_delay, delay) << "backend=" << static_cast<int>(b);
  }
}

// ---------- blossom dual-adjustment kernels ----------

struct BlossomArrays {
  std::vector<std::int64_t> lab, val;
  std::vector<std::int32_t> state, slack, st, s;
};

BlossomArrays random_blossom_arrays(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BlossomArrays a;
  for (std::size_t i = 0; i < n; ++i) {
    // Mix of small and near-2^61 magnitudes, as the solver produces.
    const std::int64_t big = std::int64_t{1} << 61;
    a.lab.push_back(static_cast<std::int64_t>(rng.below(1000)) *
                        (rng.below(2) ? 1 : -1) +
                    (rng.below(3) == 0 ? big : 0));
    a.val.push_back(static_cast<std::int64_t>(rng.below(1000)) +
                    (rng.below(4) == 0 ? big : 0));
    a.state.push_back(static_cast<std::int32_t>(rng.below(3)) - 1);
    a.slack.push_back(rng.below(3) == 0 ? 0
                                        : static_cast<std::int32_t>(
                                              1 + rng.below(n + 1)));
    a.st.push_back(rng.below(2) ? static_cast<std::int32_t>(i)
                                : static_cast<std::int32_t>(rng.below(n + 1)));
    a.s.push_back(static_cast<std::int32_t>(rng.below(3)) - 1);
  }
  return a;
}

TEST(Simd, I64DualApplyMatchesScalarOnAllBackends) {
  for (std::size_t n : kLengths) {
    const BlossomArrays a = random_blossom_arrays(n, 1300 + n);
    const std::int64_t d = 12345;
    std::vector<std::int64_t> expected = a.lab;
    for (std::size_t i = 1; i < n; ++i) {
      if (a.state[i] == 0) {
        expected[i] -= d;
      } else if (a.state[i] == 1) {
        expected[i] += d;
      }
    }
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      std::vector<std::int64_t> lab = a.lab;
      if (n >= 1) simd::i64_dual_apply(lab.data(), a.state.data(), 1, n, d);
      EXPECT_EQ(expected, lab) << "n=" << n
                               << " backend=" << static_cast<int>(b);
    }
  }
}

TEST(Simd, I64SlackBoundMatchesScalarOnAllBackends) {
  for (std::size_t n : kLengths) {
    const BlossomArrays a = random_blossom_arrays(n, 1700 + n);
    std::int64_t expected = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < n; ++i) {
      if (a.st[i] != static_cast<std::int32_t>(i) || a.slack[i] == 0) continue;
      if (a.s[i] == -1) {
        expected = std::min(expected, a.val[i]);
      } else if (a.s[i] == 0) {
        expected = std::min(expected, a.val[i] >> 1);
      }
    }
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      EXPECT_EQ(expected,
                simd::i64_slack_bound(a.val.data(), a.slack.data(),
                                      a.st.data(), a.s.data(), 0, n))
          << "n=" << n << " backend=" << static_cast<int>(b);
    }
  }
}

TEST(Simd, I64SlackShiftMatchesScalarOnAllBackends) {
  for (std::size_t n : kLengths) {
    const BlossomArrays a = random_blossom_arrays(n, 2100 + n);
    const std::int64_t d = 777;
    std::vector<std::int64_t> expected = a.val;
    for (std::size_t i = 0; i < n; ++i) {
      if (a.st[i] != static_cast<std::int32_t>(i) || a.slack[i] == 0) continue;
      if (a.s[i] == -1) {
        expected[i] -= d;
      } else if (a.s[i] == 0) {
        expected[i] -= 2 * d;
      }
    }
    for (simd::Backend b : supported_backends()) {
      BackendGuard guard(b);
      std::vector<std::int64_t> val = a.val;
      simd::i64_slack_shift(val.data(), a.slack.data(), a.st.data(),
                            a.s.data(), 0, n, d);
      EXPECT_EQ(expected, val) << "n=" << n
                               << " backend=" << static_cast<int>(b);
    }
  }
}

}  // namespace
}  // namespace mcharge
