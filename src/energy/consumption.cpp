#include "energy/consumption.h"

#include <algorithm>

#include "util/assert.h"

namespace mcharge::energy {

std::vector<double> consumption_watts(const RoutingTree& tree,
                                      const RadioParams& radio,
                                      const std::vector<double>& rate_bps) {
  const std::size_t n = rate_bps.size();
  MCHARGE_ASSERT(tree.parent.size() == n, "tree/rate size mismatch");
  std::vector<double> watts(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    const double own = rate_bps[v];
    const double relayed = std::min(
        tree.relay_rate_bps[v] * radio.aggregation_ratio,
        radio.link_capacity_bps);
    const double forwarded = std::min(own + relayed, radio.link_capacity_bps);
    watts[v] = radio.idle_watts + radio.sense_per_bit() * own +
               radio.rx_per_bit() * relayed +
               radio.tx_per_bit(tree.link_length[v]) * forwarded;
  }
  return watts;
}

std::vector<double> consumption_watts(
    const std::vector<geom::Point>& positions, geom::Point base_station,
    const RadioParams& radio, const std::vector<double>& rate_bps) {
  const RoutingTree tree =
      build_routing_tree(positions, base_station, radio, rate_bps);
  return consumption_watts(tree, radio, rate_bps);
}

}  // namespace mcharge::energy
