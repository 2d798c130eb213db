// Offline replay of captured rounds through the library's public stage
// functions, timing each stage from outside. Every replay accumulates into
// its result struct, so one struct can total several simulations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/appro.h"
#include "sim/simulation.h"
#include "timed_scheduler.h"
#include "tsp/split.h"

namespace perfbench {

/// K-minMax's min_max_k_tours, stage by stage, plus the Christofides
/// sub-stages (MST and odd-vertex matching) timed on their own.
struct KMinMaxReplay {
  std::size_t rounds = 0;
  std::size_t sites = 0;
  double distance_cache_s = 0.0;
  double build_s = 0.0;
  double improve_s = 0.0;
  double split_s = 0.0;
  double segment_two_opt_s = 0.0;
  double mst_s = 0.0;
  double odd_match_s = 0.0;
  std::size_t odd_vertices = 0;
  /// Odd-vertex matchings that the size dispatch sends to the sparse
  /// blossom, and the pricing rounds they took (obs counter delta).
  std::size_t sparse_matchings = 0;
  std::int64_t sparse_rounds = 0;
  std::size_t mismatches = 0;  ///< rounds whose tours differ from the plan

  /// Seconds in the five min_max_k_tours stages (MST and matching are
  /// inside build_s).
  double stages_s() const {
    return distance_cache_s + build_s + improve_s + split_s +
           segment_two_opt_s;
  }
};

/// Replays `rounds` (captured from a KMinMaxScheduler built with
/// `options`), counting every round whose replayed tours are not
/// bit-identical to the captured plan. Tracing is enabled only around the
/// odd-set matchings, to count their pricing rounds.
void replay_kminmax(const std::vector<CapturedRound>& rounds,
                    const mcharge::tsp::MinMaxTourOptions& options,
                    KMinMaxReplay& out);

struct ApproReplay {
  std::size_t rounds = 0;
  std::size_t v_s = 0;  ///< summed |V_s|
  std::size_t v_h = 0;  ///< summed |V'_H|
  std::size_t mismatches = 0;
};

/// Re-plans each captured Appro round with plan_with_stats to read
/// |V'_H|, counting every plan that differs from the captured one.
void replay_appro(const std::vector<CapturedRound>& rounds,
                  const mcharge::core::ApproScheduler& appro,
                  ApproReplay& out);

struct VerifyReplay {
  std::size_t schedules = 0;
  std::size_t faulty_schedules = 0;  ///< rounds verified under faults
  double verify_s = 0.0;
};

/// Re-executes each captured round of a simulation run with `config` the
/// way sim::simulate does, under the round's fault bundle and MCV budget
/// (partial schedules, recovery waves) when it has one, and times
/// verify_schedule alone.
void replay_verify(const std::vector<CapturedRound>& rounds,
                   const mcharge::sim::SimConfig& config, VerifyReplay& out);

}  // namespace perfbench
