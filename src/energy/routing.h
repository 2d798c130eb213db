// Data-routing tree from sensors to the base station.
//
// Sensors relay their readings hop by hop toward the sink over the
// communication graph (unit-disk graph with the radio's comm_range). The
// relay load of a sensor is the sum of the data rates of its subtree; this
// is what creates the energy-hole effect (sensors near the sink deplete
// faster) that the charging algorithms must cope with.
#pragma once

#include <cstdint>
#include <vector>

#include "energy/radio.h"
#include "geometry/point.h"

namespace mcharge::energy {

struct RoutingTree {
  /// Parent index per sensor; kToBaseStation means the sensor uplinks
  /// directly to the base station (either within comm range of it, or
  /// disconnected from the tree and falling back to a long direct link).
  static constexpr std::uint32_t kToBaseStation = 0xffffffffu;

  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> hops;      ///< hop count to the base station
  std::vector<double> link_length;      ///< meters to parent (or BS)
  std::vector<double> relay_rate_bps;   ///< traffic relayed THROUGH the node
  std::size_t direct_fallbacks = 0;     ///< sensors with no multi-hop path
};

/// Builds the fewest-hops routing tree over `positions` toward
/// `base_station` (multi-source BFS: short paths over long,
/// amplifier-heavy links, the classic energy-hole setting), then
/// accumulates per-node relay load from `rate_bps` (own data generation
/// rate per sensor, bits/second).
RoutingTree build_routing_tree(const std::vector<geom::Point>& positions,
                               geom::Point base_station,
                               const RadioParams& radio,
                               const std::vector<double>& rate_bps);

}  // namespace mcharge::energy
