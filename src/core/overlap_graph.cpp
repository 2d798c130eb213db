#include "core/overlap_graph.h"

#include "util/assert.h"

namespace mcharge::core {

graph::Graph charging_graph(const model::ChargingProblem& problem) {
  graph::Graph gc(problem.size());
  for (std::uint32_t v = 0; v < problem.size(); ++v) {
    for (std::uint32_t u : problem.coverage(v)) {
      if (u > v) gc.add_edge(v, u);
    }
  }
  return gc;
}

graph::Graph overlap_graph(const model::ChargingProblem& problem,
                           const std::vector<std::uint32_t>& subset) {
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  graph::Graph h(subset.size());
  // local[s] = index of sensor s in `subset` (kNone if absent);
  // seen[j] == i once j has been joined to i, so each edge is added once.
  std::vector<std::uint32_t> local(problem.size(), kNone);
  for (std::uint32_t i = 0; i < subset.size(); ++i) {
    MCHARGE_ASSERT(subset[i] < problem.size() && local[subset[i]] == kNone,
                   "subset must hold distinct sensor ids");
    local[subset[i]] = i;
  }
  // j is an H-neighbour of i iff some w in N_c+(s_i) has s_j in N_c+(w),
  // i.e. N_c+(s_i) and N_c+(s_j) intersect (coverage is symmetric).
  std::vector<std::uint32_t> seen(subset.size(), kNone);
  for (std::uint32_t i = 0; i < subset.size(); ++i) {
    for (std::uint32_t w : problem.coverage(subset[i])) {
      for (std::uint32_t s : problem.coverage(w)) {
        const std::uint32_t j = local[s];
        if (j == kNone || j <= i || seen[j] == i) continue;
        seen[j] = i;
        h.add_edge(i, j);
      }
    }
  }
  return h;
}

}  // namespace mcharge::core
