// Local-search improvement of closed tours: 2-opt and Or-opt.
//
// Service times are invariant under reordering, so both moves optimize the
// travel component only. Tours are depot-rooted: the depot legs at both
// ends participate in the move evaluation.
#pragma once

#include "tsp/tour_problem.h"

namespace mcharge::tsp {

struct ImproveOptions {
  bool use_two_opt = true;
  bool use_or_opt = true;
  /// Safety bound, counted per operator: two_opt stops after this many
  /// full sweeps over the left edges, or_opt after this many applied
  /// moves (each move restarts its candidate walk), and improve_tour
  /// after this many two_opt-then-or_opt rounds, each of which passes the
  /// same bound on to both operators. A truncated run returns the tour
  /// as it stood when the budget ran out.
  std::size_t max_passes = 64;
  double min_gain = 1e-9;        ///< ignore numerically-zero improvements
};

/// 2-opt to a local optimum (reverses tour segments). Returns total travel
/// time saved.
double two_opt(const TourProblem& problem, Tour& tour,
               const ImproveOptions& options = {});

/// Or-opt to a local optimum (relocates segments of length 1..3). Returns
/// travel time saved.
double or_opt(const TourProblem& problem, Tour& tour,
              const ImproveOptions& options = {});

/// Runs the enabled moves alternately until neither improves.
double improve_tour(const TourProblem& problem, Tour& tour,
                    const ImproveOptions& options = {});

}  // namespace mcharge::tsp
