// Min-max K-tour splitting — the "K-optimal closed tour" substrate.
//
// Liang et al. (ACM TOSN'16) give a 5-approximation for finding K
// node-disjoint depot-rooted closed tours covering a node set while
// minimizing the longest (travel + service) tour delay. We implement the
// classic tour-splitting scheme behind that family of results
// (Frederickson, Hecht & Kim): build one node-weighted TSP tour over all
// sites, then cut it into at most K consecutive segments, connecting each
// segment's endpoints to the depot. The cut positions are chosen by binary
// search on the max segment delay with a greedy feasibility check, which
// finds the optimal cut of the given tour (up to numeric tolerance).
#pragma once

#include <cstddef>
#include <vector>

#include "tsp/construct.h"
#include "tsp/improve.h"
#include "tsp/tour_problem.h"

namespace mcharge::tsp {

struct SplitResult {
  std::vector<Tour> tours;  ///< exactly K tours; trailing ones may be empty
  double max_delay = 0.0;   ///< delay of the longest tour
};

/// Optional per-segment energy cap for the split. A segment's energy is
/// its travel seconds (depot -> sites -> depot) times travel_power_w plus
/// its service seconds times service_power_w. budget_j == 0 disables the
/// cap — the split then takes exactly the delay-only code path. No
/// planner sets it; the benchmark replay passes
/// MinMaxTourOptions::energy through, so the cap goes at the next
/// benchmark change, as TourBuilder does.
struct SegmentEnergyCap {
  double budget_j = 0.0;        ///< per-segment joule cap; 0 = disabled
  double travel_power_w = 0.0;  ///< joules per second of driving
  double service_power_w = 0.0; ///< joules per second of charging service
  bool enabled() const { return budget_j > 0.0; }
};

/// Cuts the given complete closed tour into at most K depot-rooted segments
/// minimizing the maximum segment delay. The input tour's site order is
/// preserved inside each segment. Each position's depot leg, predecessor
/// leg and service time are computed once, in O(m); every bisection probe
/// then runs one greedy cut over those arrays that records only where each
/// segment starts (stopping once it needs more than K), and the segments
/// are built once, for the chosen cut. With an enabled `cap`, the greedy cut
/// also closes a segment whenever extending it would push its energy over
/// cap.budget_j, so every returned segment fits the cap — except when even
/// the loosest delay budget cannot satisfy cap and K together, in which
/// case the cap is dropped entirely (best effort: the executor's budget
/// machinery turns any residual overdraw into a recoverable abort). A
/// single site whose own energy exceeds the cap is always allowed as its
/// own segment for the same reason.
SplitResult split_min_max(const TourProblem& problem, const Tour& tour,
                          std::size_t k, const SegmentEnergyCap& cap = {});

struct MinMaxTourOptions {
  /// Read only by the benchmark replay; goes with TourBuilder at the next
  /// benchmark change.
  TourBuilder builder = TourBuilder::kChristofides;
  /// Odd-vertex matching engine for Christofides (sparse blossom by
  /// default; forcing dense yields byte-identical tours).
  matching::MatchingOptions matching;
  ImproveOptions improve;       ///< applied to the global tour before split
  bool improve_segments = true; ///< 2-opt each segment after splitting
  /// Per-segment energy cap forwarded to split_min_max. Disabled by
  /// default; per-segment 2-opt can only shorten travel, so it never
  /// pushes a cap-respecting segment back over the cap. Read only by the
  /// tests and the benchmark replay; goes with TourBuilder at the next
  /// benchmark change.
  SegmentEnergyCap energy;
};

/// End-to-end K min-max closed tours over all sites of `problem`:
/// construct -> improve -> split -> (optionally) improve each segment.
/// No stage builds the m x m distance cache.
SplitResult min_max_k_tours(const TourProblem& problem, std::size_t k,
                            const MinMaxTourOptions& options = {});

}  // namespace mcharge::tsp
