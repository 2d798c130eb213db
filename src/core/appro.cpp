#include "core/appro.h"

#include <algorithm>
#include <limits>

#include "core/overlap_graph.h"
#include "graph/mis.h"
#include "obs/obs.h"
#include "util/assert.h"

namespace mcharge::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Working state of one charging tour during the insertion phase.
struct WorkTour {
  std::vector<std::uint32_t> seq;       ///< sensor ids, visit order
  std::vector<double> tau_prime;        ///< charging duration per stop
  std::vector<double> finish;           ///< charging finish time f (Eq. (6))
};

/// Recomputes f from position `from` onward (Eqs. (6), (11), (12) fold
/// into a single forward pass once every stop's tau' is fixed), seeding
/// the clock with the stored finish of the stop before `from`. An
/// insertion at position `from` leaves seq/tau_prime on [0, from)
/// untouched, so the stored finish[from - 1] holds exactly the bits a full
/// forward pass would reach at that stop — the suffix pass therefore
/// reproduces the from-scratch recomputation bit for bit (DESIGN.md,
/// planner determinism).
void recompute_finish_from(const model::ChargingProblem& problem,
                           WorkTour& tour, std::size_t from) {
  double clock = from == 0 ? 0.0 : tour.finish[from - 1];
  for (std::size_t l = from; l < tour.seq.size(); ++l) {
    clock += l == 0 ? problem.travel_depot(tour.seq[l])
                    : problem.travel(tour.seq[l - 1], tour.seq[l]);
    clock += tour.tau_prime[l];
    tour.finish[l] = clock;
  }
}

}  // namespace

ApproScheduler::ApproScheduler(ApproOptions options)
    : options_(std::move(options)) {}

sched::ChargingPlan ApproScheduler::plan(
    const model::ChargingProblem& problem) const {
  return plan_with_stats(problem, nullptr);
}

sched::ChargingPlan ApproScheduler::plan_with_stats(
    const model::ChargingProblem& problem, ApproStats* stats) const {
  const std::size_t n = problem.size();
  const std::size_t k = problem.num_chargers();
  sched::ChargingPlan plan;
  plan.mode = sched::ChargeMode::kMultiNode;
  plan.tours.assign(k, {});
  if (n == 0) {
    if (stats) *stats = ApproStats{};
    return plan;
  }

  OBS_SPAN("appro.plan");

  // Steps 1-2: charging graph and its MIS S_I.
  graph::Graph gc;
  std::vector<graph::Vertex> s_i;
  {
    OBS_SPAN("appro.charging_graph_mis");
    gc = charging_graph(problem);
    s_i = graph::maximal_independent_set(gc);
    MCHARGE_ASSERT(graph::is_maximal_independent_set(gc, s_i),
                   "S_I must be a maximal independent set of G_c");
  }

  // Step 3: overlap graph H on S_I (vertex i of H is s_i[i]).
  graph::Graph h;
  {
    OBS_SPAN("appro.overlap_graph");
    h = overlap_graph(problem, s_i);
  }

  // Step 4: MIS V'_H of H.
  std::vector<graph::Vertex> vh_local;
  {
    OBS_SPAN("appro.h_mis");
    vh_local = graph::maximal_independent_set(h);
  }

  // Step 5: K min-max closed tours over V'_H with service times tau(v).
  tsp::TourProblem tour_problem;
  tour_problem.depot = problem.depot();
  tour_problem.speed = problem.speed();
  std::vector<std::uint32_t> vh_sensors;  // sensor id per tour site
  vh_sensors.reserve(vh_local.size());
  for (graph::Vertex i : vh_local) {
    const std::uint32_t sensor = s_i[i];
    vh_sensors.push_back(sensor);
    tour_problem.sites.push_back(problem.position(sensor));
    tour_problem.service.push_back(problem.tau(sensor));
  }
  tsp::SplitResult split;
  {
    OBS_SPAN("appro.k_tours");
    split = tsp::min_max_k_tours(tour_problem, k, options_.tour);
  }

  // Working tours over sensor ids, with tau' = tau (coverage disks of V'_H
  // nodes are pairwise disjoint, so nothing is double-counted initially).
  std::vector<WorkTour> tours(k);
  std::vector<char> covered(n, 0);  // sensors covered by committed stops
  for (std::size_t t = 0; t < k; ++t) {
    for (tsp::SiteId site : split.tours[t]) {
      const std::uint32_t sensor = vh_sensors[site];
      tours[t].seq.push_back(sensor);
      tours[t].tau_prime.push_back(problem.tau(sensor));
      for (std::uint32_t u : problem.coverage(sensor)) covered[u] = 1;
    }
    tours[t].finish.resize(tours[t].seq.size());
    recompute_finish_from(problem, tours[t], 0);
  }

  // Position lookup: for each sensor in a tour, (tour, index).
  std::vector<std::int32_t> tour_of(n, -1);
  std::vector<std::size_t> pos_of(n, 0);
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t l = 0; l < tours[t].seq.size(); ++l) {
      tour_of[tours[t].seq[l]] = static_cast<std::int32_t>(t);
      pos_of[tours[t].seq[l]] = l;
    }
  }
  for (const std::uint32_t sensor : vh_sensors) {
    MCHARGE_ASSERT(tour_of[sensor] >= 0,
                   "every V'_H member sits in an initial tour");
  }

  ApproStats local_stats;
  local_stats.v_s = n;
  local_stats.s_i = s_i.size();
  local_stats.v_h = vh_local.size();
  local_stats.h_max_degree = h.max_degree();

  // Step 6: insert U = S_I \ V'_H by increasing latest-neighbor finish
  // time f_N (Eq. (8)). H-neighbors are looked up through the H graph
  // (vertex i of H <-> sensor s_i[i]). The span runs to the end of the
  // function: final plan assembly is a few pushes.
  OBS_SPAN("appro.insertion");
  std::vector<char> in_vh(s_i.size(), 0);
  for (graph::Vertex i : vh_local) in_vh[i] = 1;
  std::vector<std::uint32_t> pending;  // indices into s_i
  for (std::uint32_t i = 0; i < s_i.size(); ++i) {
    if (!in_vh[i]) pending.push_back(i);
  }

  // Distinct placed tours among the current node's H-neighbors (Case (i)
  // vs Case (ii) of the analysis); buffer reused across rounds.
  std::vector<std::int32_t> seen_tours;
  seen_tours.reserve(k);

  // f_N(u): max finish over u's H-neighbors that sit in a tour, via the
  // exact scalar op sequence the test reference replays.
  auto latest_neighbor_finish = [&](std::uint32_t hi) {
    double best = -kInf;
    for (graph::Vertex nb : h.neighbors(hi)) {
      const std::uint32_t sensor = s_i[nb];
      if (tour_of[sensor] >= 0) {
        best = std::max(
            best, tours[static_cast<std::size_t>(tour_of[sensor])]
                      .finish[pos_of[sensor]]);
      }
    }
    return best;
  };

  // Line 10: drop u when everything it would charge is already covered;
  // otherwise report the charging duration its sojourn needs.
  auto coverage_probe = [&](std::uint32_t u, double& tau_prime_u) {
    bool fully_covered = true;
    tau_prime_u = 0.0;
    for (std::uint32_t w : problem.coverage(u)) {
      if (!covered[w]) {
        fully_covered = false;
        tau_prime_u = std::max(tau_prime_u, problem.charge_seconds(w));
      }
    }
    return fully_covered;
  };

  // N'_H(u): H-neighbors already placed in tours. Non-empty because V'_H
  // is maximal in H (u must have a neighbor in V'_H). Picks the placed
  // neighbor with the largest charging finish time (Eqs. (9)/(13)) and
  // bumps the case counters.
  auto choose_placement = [&](std::uint32_t hi, std::int32_t& best_tour,
                              std::size_t& best_pos) {
    best_tour = -1;
    best_pos = 0;
    double best_finish = -kInf;
    seen_tours.clear();
    for (graph::Vertex nb : h.neighbors(hi)) {
      const std::uint32_t sensor = s_i[nb];
      const std::int32_t t = tour_of[sensor];
      if (t < 0) continue;
      if (std::find(seen_tours.begin(), seen_tours.end(), t) ==
          seen_tours.end()) {
        seen_tours.push_back(t);
      }
      const std::size_t pos = pos_of[sensor];
      const double finish = tours[static_cast<std::size_t>(t)].finish[pos];
      if (finish > best_finish) {
        best_finish = finish;
        best_tour = t;
        best_pos = pos;
      }
    }
    MCHARGE_ASSERT(best_tour >= 0,
                   "u in S_I \\ V'_H must have a placed H-neighbor");
    const std::size_t distinct_tours = seen_tours.size();
    MCHARGE_ASSERT(distinct_tours >= 1,
                   "a placed H-neighbor implies at least one distinct tour");
    if (distinct_tours <= 1) {
      ++local_stats.inserted_case_one;  // Case (i)
    } else {
      ++local_stats.inserted_case_two;  // Case (ii)
    }
  };

  // Insert u just after its chosen neighbor (Eqs. (9)/(13)): splice the
  // stop, its charging duration and a finish slot in at `insert_at`.
  auto splice = [](WorkTour& tour, std::size_t insert_at, std::uint32_t u,
                   double tau_prime_u) {
    tour.seq.insert(tour.seq.begin() + static_cast<std::ptrdiff_t>(insert_at),
                    u);
    tour.tau_prime.insert(
        tour.tau_prime.begin() + static_cast<std::ptrdiff_t>(insert_at),
        tau_prime_u);
    tour.finish.insert(
        tour.finish.begin() + static_cast<std::ptrdiff_t>(insert_at), 0.0);
  };

  while (!pending.empty()) {
    // Pick the pending node with the smallest f_N (Algorithm 1, line 9);
    // the earliest pending node wins a tie.
    std::size_t pick = 0;
    double pick_fn = kInf;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const double fn = latest_neighbor_finish(pending[i]);
      if (fn < pick_fn) {
        pick_fn = fn;
        pick = i;
      }
    }
    const std::uint32_t hi = pending[pick];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    const std::uint32_t u = s_i[hi];

    double tau_prime_u = 0.0;
    if (coverage_probe(u, tau_prime_u)) {
      ++local_stats.dropped_covered;
      continue;
    }
    std::int32_t best_tour = -1;
    std::size_t best_pos = 0;
    choose_placement(hi, best_tour, best_pos);

    auto& tour = tours[static_cast<std::size_t>(best_tour)];
    const std::size_t insert_at = best_pos + 1;
    splice(tour, insert_at, u, tau_prime_u);
    recompute_finish_from(problem, tour, insert_at);
    // Only positions at and after the insertion moved; earlier stops
    // keep their (tour, position).
    tour_of[u] = best_tour;
    for (std::size_t l = insert_at; l < tour.seq.size(); ++l) {
      pos_of[tour.seq[l]] = l;
    }
    for (std::uint32_t w : problem.coverage(u)) covered[w] = 1;
  }

  // Every sensor must now be covered (S_I dominates G_c).
  for (std::uint32_t v = 0; v < n; ++v) {
    MCHARGE_ASSERT(covered[v], "Appro left a sensor uncovered");
  }

  for (std::size_t t = 0; t < k; ++t) plan.tours[t] = std::move(tours[t].seq);
  if (stats) *stats = local_stats;
  return plan;
}

}  // namespace mcharge::core
