#include "energy/routing.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>

#include "geometry/grid_index.h"
#include "util/assert.h"

namespace mcharge::energy {

namespace {

constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();

}  // namespace

RoutingTree build_routing_tree(const std::vector<geom::Point>& positions,
                               geom::Point base_station,
                               const RadioParams& radio,
                               const std::vector<double>& rate_bps) {
  const std::size_t n = positions.size();
  MCHARGE_ASSERT(rate_bps.size() == n, "one data rate per sensor required");
  RoutingTree tree;
  tree.parent.assign(n, RoutingTree::kToBaseStation);
  tree.hops.assign(n, kUnreached);
  tree.link_length.assign(n, 0.0);
  tree.relay_rate_bps.assign(n, 0.0);
  if (n == 0) return tree;

  // Multi-source BFS from the base station (fewest hops). Each popped
  // sensor drains its disk from `index`, so a sensor is examined only
  // until it is reached: every sensor the index still holds is unreached
  // or a first-hop seed, and the unreached ones are met in visit_disk's
  // order.
  geom::GridIndex index(positions, radio.comm_range);
  std::deque<std::uint32_t> queue;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (geom::within(base_station, positions[v], radio.comm_range)) {
      tree.hops[v] = 1;
      tree.parent[v] = RoutingTree::kToBaseStation;
      tree.link_length[v] = geom::distance(base_station, positions[v]);
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const std::uint32_t v = queue.front();
    queue.pop_front();
    index.drain_disk(positions[v], radio.comm_range, [&](std::uint32_t u) {
      if (tree.hops[u] == kUnreached) {
        tree.hops[u] = tree.hops[v] + 1;
        tree.parent[u] = v;
        tree.link_length[u] = geom::distance(positions[u], positions[v]);
        queue.push_back(u);
      }
    });
  }

  // Disconnected sensors fall back to a direct (long) uplink to the BS.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (tree.hops[v] == kUnreached) {
      tree.hops[v] = 1;
      tree.parent[v] = RoutingTree::kToBaseStation;
      tree.link_length[v] = geom::distance(base_station, positions[v]);
      ++tree.direct_fallbacks;
    }
  }

  // Accumulate relay load: process sensors in decreasing hop count so every
  // child is handled before its parent.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return tree.hops[a] > tree.hops[b];
  });
  for (std::uint32_t v : order) {
    const std::uint32_t p = tree.parent[v];
    if (p != RoutingTree::kToBaseStation) {
      tree.relay_rate_bps[p] += tree.relay_rate_bps[v] + rate_bps[v];
    }
  }
  return tree;
}

}  // namespace mcharge::energy
