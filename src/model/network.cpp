#include "model/network.h"

#include "energy/consumption.h"
#include "geometry/field.h"
#include "util/assert.h"

namespace mcharge::model {

std::optional<FieldLayout> parse_layout(std::string_view name) {
  if (name == "uniform") return FieldLayout::kUniform;
  if (name == "clustered") return FieldLayout::kClustered;
  if (name == "grid") return FieldLayout::kGrid;
  return std::nullopt;
}

WrsnInstance make_instance(const NetworkConfig& config, std::size_t n,
                           Rng& rng, FieldLayout layout) {
  MCHARGE_ASSERT(config.rate_min_bps <= config.rate_max_bps,
                 "rate_min must be <= rate_max");
  WrsnInstance instance;
  instance.config = config;
  switch (layout) {
    case FieldLayout::kUniform:
      instance.positions =
          geom::uniform_field(n, config.field_width, config.field_height, rng);
      break;
    case FieldLayout::kClustered:
      instance.positions = geom::clustered_field(
          n, config.field_width, config.field_height, 5, 8.0, rng);
      break;
    case FieldLayout::kGrid:
      instance.positions = geom::grid_field(n, config.field_width,
                                            config.field_height, 0.1, rng);
      break;
  }
  instance.rate_bps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    instance.rate_bps.push_back(
        rng.uniform(config.rate_min_bps, config.rate_max_bps));
  }
  instance.consumption_w = energy::consumption_watts(
      instance.positions, config.base_station, config.radio,
      instance.rate_bps);
  return instance;
}

}  // namespace mcharge::model
