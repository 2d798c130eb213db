// Per-sensor steady-state power draw from the radio model + routing tree.
#pragma once

#include <vector>

#include "energy/radio.h"
#include "energy/routing.h"
#include "geometry/point.h"

namespace mcharge::energy {

/// Computes each sensor's power draw in watts:
///   P(v) = e_sense * b_v                      (sensing own data)
///        + e_elec  * relay_v                  (receiving relayed traffic)
///        + tx_per_bit(link_v) * (b_v + relay_v)  (forwarding everything up)
/// where b_v is the sensor's own data rate and relay_v the traffic routed
/// through it after in-network aggregation (raw subtree rate scaled by
/// RadioParams::aggregation_ratio).
std::vector<double> consumption_watts(
    const std::vector<geom::Point>& positions, geom::Point base_station,
    const RadioParams& radio, const std::vector<double>& rate_bps);

/// Variant reusing a prebuilt routing tree.
std::vector<double> consumption_watts(const RoutingTree& tree,
                                      const RadioParams& radio,
                                      const std::vector<double>& rate_bps);

}  // namespace mcharge::energy
