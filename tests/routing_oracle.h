// Test oracle: the min-hop routing tree built by a BFS that scans each
// popped sensor's whole disk with GridIndex::visit_disk.
// energy::build_routing_tree's BFS drains reached sensors from its grid
// instead (GridIndex::drain_disk); it must reproduce every RoutingTree
// field of this one bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <numeric>
#include <vector>

#include "energy/radio.h"
#include "energy/routing.h"
#include "geometry/grid_index.h"
#include "geometry/point.h"

namespace mcharge::energy::oracle {

/// build_routing_tree(positions, base_station, radio, rate_bps), with a
/// visit_disk BFS.
inline RoutingTree min_hop_tree(const std::vector<geom::Point>& positions,
                                geom::Point base_station,
                                const RadioParams& radio,
                                const std::vector<double>& rate_bps) {
  constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
  const std::size_t n = positions.size();
  RoutingTree tree;
  tree.parent.assign(n, RoutingTree::kToBaseStation);
  tree.hops.assign(n, kUnreached);
  tree.link_length.assign(n, 0.0);
  tree.relay_rate_bps.assign(n, 0.0);
  if (n == 0) return tree;

  // Multi-source BFS from the base station.
  const geom::GridIndex index(positions, radio.comm_range);
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
    index.visit_disk(positions[v], radio.comm_range, [&](std::uint32_t u) {
      if (tree.hops[u] == kUnreached) {
        tree.hops[u] = tree.hops[v] + 1;
        tree.parent[u] = v;
        tree.link_length[u] = geom::distance(positions[u], positions[v]);
        queue.push_back(u);
      }
      return true;
    });
  }

  // Disconnected sensors fall back to a direct uplink.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (tree.hops[v] == kUnreached) {
      tree.hops[v] = 1;
      tree.parent[v] = RoutingTree::kToBaseStation;
      tree.link_length[v] = geom::distance(base_station, positions[v]);
      ++tree.direct_fallbacks;
    }
  }

  // Relay load, children before parents.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return tree.hops[a] > tree.hops[b];
  });
  for (const std::uint32_t v : order) {
    const std::uint32_t p = tree.parent[v];
    if (p != RoutingTree::kToBaseStation) {
      tree.relay_rate_bps[p] += tree.relay_rate_bps[v] + rate_bps[v];
    }
  }
  return tree;
}

}  // namespace mcharge::energy::oracle
