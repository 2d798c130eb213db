// WRSN instance description and generation.
//
// A WrsnInstance is the static part of an experiment: sensor positions,
// per-sensor data rates, the derived steady-state power draw of every
// sensor, and the network-wide configuration (Section VI-A of the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "energy/radio.h"
#include "geometry/point.h"
#include "util/rng.h"

namespace mcharge::model {

/// Network-wide parameters. Defaults reproduce the paper's evaluation
/// settings (Section VI-A).
struct NetworkConfig {
  double field_width = 100.0;        ///< m
  double field_height = 100.0;       ///< m
  geom::Point base_station{50.0, 50.0};
  geom::Point depot{50.0, 50.0};     ///< MCV home; co-located with BS here
  double battery_capacity_j = 10.8e3;  ///< C_v = 10.8 kJ
  double rate_min_bps = 1e3;         ///< b_min = 1 kbps
  double rate_max_bps = 50e3;        ///< b_max = 50 kbps
  double charging_radius = 2.7;      ///< gamma, m
  double charging_rate_w = 2.0;      ///< eta, W
  double mcv_speed = 1.0;            ///< s, m/s
  std::size_t num_chargers = 2;      ///< K
  double request_threshold = 0.20;   ///< request when residual < 20% C_v
  energy::RadioParams radio;         ///< consumption model parameters

  /// Seconds to charge a battery deficit of `deficit_j` joules.
  double charge_seconds(double deficit_j) const {
    return deficit_j / charging_rate_w;
  }
};

/// A concrete sensor field with derived per-sensor consumption rates.
struct WrsnInstance {
  NetworkConfig config;
  std::vector<geom::Point> positions;
  std::vector<double> rate_bps;        ///< own data generation rate
  std::vector<double> consumption_w;   ///< steady-state draw (incl. relaying)

  std::size_t num_sensors() const { return positions.size(); }
};

/// Field layout used by the generator.
enum class FieldLayout { kUniform, kClustered, kGrid };

/// The layout named "uniform", "clustered" or "grid" (the --layout flag's
/// values); nullopt for any other name.
std::optional<FieldLayout> parse_layout(std::string_view name);

/// Generates an instance with n sensors. Positions follow `layout`
/// (clustered: 5 hotspots with sigma = 8 m; grid: 10% jitter), data rates
/// are uniform in [rate_min_bps, rate_max_bps], and consumption is derived
/// from the routing tree toward the base station.
WrsnInstance make_instance(const NetworkConfig& config, std::size_t n,
                           Rng& rng,
                           FieldLayout layout = FieldLayout::kUniform);

}  // namespace mcharge::model
