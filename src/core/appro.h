// Algorithm Appro — the paper's approximation algorithm for the longest
// charge delay minimization problem (Algorithm 1, Sections IV-V).
//
// Pipeline:
//  1. build the charging graph G_c over V_s (edge iff distance <= gamma);
//  2. S_I  <- maximal independent set of G_c (a dominating set: parking an
//     MCV at every S_I node covers all of V_s);
//  3. H    <- overlap graph on S_I (edge iff coverage disks intersect);
//  4. V'_H <- maximal independent set of H: pairwise conflict-free sojourn
//     locations;
//  5. find K node-disjoint depot-rooted closed tours over V'_H minimizing
//     the max (travel + charging) delay — the K-optimal closed tour
//     substrate (tsp::min_max_k_tours, the Liang et al. [14] plug-in);
//  6. insert the remaining nodes of S_I \ V'_H one at a time, in increasing
//     latest-neighbor-finish-time f_N (Eq. (8)), each placed immediately
//     after its max-finish-time tour neighbor (Eqs. (9)/(13)); a node whose
//     coverage is already fully covered is dropped (Algorithm 1, line 10);
//     charging finish times are maintained per Eqs. (6), (11), (12).
//
// The returned plan uses multi-node charging; executing it yields
// (near-)zero conflict waiting because inserted nodes start only after the
// latest conflicting neighbor finished. The executor still enforces the
// constraint exactly, so the final schedule is certified conflict-free.
//
// Approximation ratio: 40*pi*(tau_max/tau_min) + 1 (Theorem 1).
#pragma once

#include <cstdint>
#include <vector>

#include "energy/mcv_battery.h"
#include "graph/mis.h"
#include "schedule/scheduler.h"
#include "tsp/split.h"

namespace mcharge::core {

/// Where step 6 places a pending node relative to its placed H-neighbors.
enum class InsertionRule {
  /// The paper's rule (Eqs. (9)/(13)): right after the H-neighbor with the
  /// largest charging finish time — the choice that argues away overlap.
  kAfterMaxFinishNeighbor,
  /// Ablation: right after the H-neighbor whose tour position minimizes the
  /// travel detour. Can produce shorter tours but relies on the executor's
  /// conflict waiting for feasibility; the ablation bench measures how much
  /// waiting this actually induces.
  kCheapestNeighborDetour,
};

struct ApproOptions {
  /// Scan order for the MIS over G_c (step 2). kIndex reproduces the
  /// paper's unspecified "find an MIS"; other orders are ablation knobs.
  graph::MisOrder gc_mis_order = graph::MisOrder::kIndex;
  /// Scan order for the MIS over H (step 4).
  graph::MisOrder h_mis_order = graph::MisOrder::kIndex;
  /// Tour construction for the K-optimal closed tour substrate (step 5).
  tsp::MinMaxTourOptions tour;
  /// Placement rule for the insertion phase (step 6).
  InsertionRule insertion = InsertionRule::kAfterMaxFinishNeighbor;
  /// Per-MCV energy budget the fleet will execute under (disabled by
  /// default — the planner is then byte-identical to the budget-free
  /// one). When enabled, step 5's K-tour split also cuts on each
  /// segment's planned battery draw (converted to a
  /// tsp::SegmentEnergyCap: travel power = move cost per meter x MCV
  /// speed, service power = charging rate / transfer efficiency), so
  /// tours that would exhaust an MCV mid-round are split up front instead
  /// of aborting at execution time. Best effort: if the cap cannot be met
  /// with K tours it is dropped, and step 6 insertions may still push a
  /// tour over budget — the executor's exhaustion machinery stays the
  /// backstop. An explicitly set tour.energy wins over this conversion.
  energy::McvBudgetSpec mcv_budget;
};

/// Per-run diagnostics (sizes of the intermediate structures).
struct ApproStats {
  std::size_t v_s = 0;          ///< |V_s|
  std::size_t s_i = 0;          ///< |S_I|
  std::size_t v_h = 0;          ///< |V'_H|
  std::size_t h_max_degree = 0; ///< Delta_H (Lemma 2 bounds it by ~8*pi)
  std::size_t inserted_case_one = 0;  ///< Case (i) insertions
  std::size_t inserted_case_two = 0;  ///< Case (ii) insertions
  std::size_t dropped_covered = 0;    ///< S_I nodes skipped as covered
};

class ApproScheduler : public sched::Scheduler {
 public:
  explicit ApproScheduler(ApproOptions options = {});

  std::string name() const override { return "Appro"; }
  sched::ChargingPlan plan(const model::ChargingProblem& problem) const override;

  /// Plan and also report the pipeline diagnostics.
  sched::ChargingPlan plan_with_stats(const model::ChargingProblem& problem,
                                      ApproStats* stats) const;

 private:
  ApproOptions options_;
};

}  // namespace mcharge::core
