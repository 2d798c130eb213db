#include "sim/validate.h"

#include <cmath>
#include <sstream>

namespace mcharge::sim {

namespace {

bool pos_finite(double x) { return std::isfinite(x) && x > 0.0; }

std::optional<ConfigError> err(ConfigErrorCode code, const std::string& msg) {
  return ConfigError{code, msg};
}

}  // namespace

std::optional<ConfigError> validate_network(const model::NetworkConfig& net) {
  if (net.num_chargers < 1) {
    return err(ConfigErrorCode::kEmptyFleet, "num_chargers must be >= 1");
  }
  if (!pos_finite(net.battery_capacity_j)) {
    return err(ConfigErrorCode::kBadCapacity,
               "battery_capacity_j must be positive and finite");
  }
  if (!pos_finite(net.charging_rate_w)) {
    return err(ConfigErrorCode::kBadChargingRate,
               "charging_rate_w must be positive and finite");
  }
  if (!pos_finite(net.mcv_speed)) {
    return err(ConfigErrorCode::kBadSpeed,
               "mcv_speed must be positive and finite");
  }
  if (!pos_finite(net.charging_radius)) {
    return err(ConfigErrorCode::kBadChargingRadius,
               "charging_radius must be positive and finite");
  }
  if (!std::isfinite(net.request_threshold) || net.request_threshold <= 0.0 ||
      net.request_threshold >= 1.0) {
    return err(ConfigErrorCode::kBadThreshold,
               "request_threshold must be in (0, 1)");
  }
  if (!std::isfinite(net.rate_min_bps) || !std::isfinite(net.rate_max_bps) ||
      net.rate_min_bps < 0.0 || net.rate_min_bps > net.rate_max_bps) {
    return err(ConfigErrorCode::kBadDataRate,
               "data rates must be finite with 0 <= rate_min_bps <= "
               "rate_max_bps");
  }
  if (!std::isfinite(net.depot.x) || !std::isfinite(net.depot.y)) {
    return err(ConfigErrorCode::kNonFiniteSensorData,
               "depot position must be finite");
  }
  return std::nullopt;
}

std::optional<ConfigError> validate_sim_config(const SimConfig& config) {
  if (!pos_finite(config.monitoring_period_s)) {
    return err(ConfigErrorCode::kBadHorizon,
               "monitoring_period_s must be positive and finite");
  }
  if (config.monitoring_period_s > kMaxHorizonS) {
    return err(ConfigErrorCode::kBadHorizon,
               "monitoring_period_s must be at most 100 years");
  }
  if (!std::isfinite(config.initial_level_fraction) ||
      config.initial_level_fraction < 0.0 ||
      config.initial_level_fraction > 1.0) {
    return err(ConfigErrorCode::kBadInitialLevel,
               "initial_level_fraction must be in [0, 1]");
  }
  if (!std::isfinite(config.dispatch_epoch_s) ||
      config.dispatch_epoch_s < 0.0) {
    return err(ConfigErrorCode::kBadEpoch,
               "dispatch_epoch_s must be >= 0 and finite");
  }
  if (config.max_rounds == 0) {
    return err(ConfigErrorCode::kBadMaxRounds, "max_rounds must be >= 1");
  }

  const FaultConfig& f = config.faults;
  auto bad_prob = [](double p) { return !std::isfinite(p) || p < 0.0 || p > 1.0; };
  if (bad_prob(f.mcv_breakdown_prob)) {
    return err(ConfigErrorCode::kBadFaultConfig,
               "faults.mcv_breakdown_prob must be in [0, 1]");
  }
  if (bad_prob(f.sensor_death_prob)) {
    return err(ConfigErrorCode::kBadFaultConfig,
               "faults.sensor_death_prob must be in [0, 1]");
  }
  if (bad_prob(f.dispatch_delay_prob)) {
    return err(ConfigErrorCode::kBadFaultConfig,
               "faults.dispatch_delay_prob must be in [0, 1]");
  }
  if (!std::isfinite(f.travel_jitter) || f.travel_jitter < 0.0 ||
      f.travel_jitter > 0.9) {
    return err(ConfigErrorCode::kBadFaultConfig,
               "faults.travel_jitter must be in [0, 0.9]");
  }
  if (!std::isfinite(f.charge_jitter) || f.charge_jitter < 0.0 ||
      f.charge_jitter > 0.9) {
    return err(ConfigErrorCode::kBadFaultConfig,
               "faults.charge_jitter must be in [0, 0.9]");
  }
  if (!std::isfinite(f.dispatch_delay_max_s) || f.dispatch_delay_max_s < 0.0) {
    return err(ConfigErrorCode::kBadFaultConfig,
               "faults.dispatch_delay_max_s must be >= 0 and finite");
  }

  // MCV energy budget: 0 capacity disables the whole subsystem.
  const double capacity_j = config.mcv_budget.capacity_j;
  if (!std::isfinite(capacity_j) || capacity_j < 0.0) {
    return err(ConfigErrorCode::kBadMcvBudget,
               "mcv_budget.capacity_j must be >= 0 and finite");
  }
  return std::nullopt;
}

std::optional<ConfigError> validate_sim_inputs(
    const model::WrsnInstance& instance, const SimConfig& config) {
  if (auto error = validate_network(instance.config)) return error;
  if (auto error = validate_sim_config(config)) return error;
  if (instance.consumption_w.size() != instance.num_sensors()) {
    std::ostringstream os;
    os << "consumption_w has " << instance.consumption_w.size()
       << " entries but positions has " << instance.num_sensors();
    return err(ConfigErrorCode::kNonFiniteSensorData, os.str());
  }
  for (std::size_t v = 0; v < instance.num_sensors(); ++v) {
    const geom::Point p = instance.positions[v];
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      std::ostringstream os;
      os << "sensor " << v << " has a non-finite position";
      return err(ConfigErrorCode::kNonFiniteSensorData, os.str());
    }
    const double w = instance.consumption_w[v];
    if (!std::isfinite(w) || w < 0.0) {
      std::ostringstream os;
      os << "sensor " << v << " has a non-finite or negative consumption";
      return err(ConfigErrorCode::kNonFiniteSensorData, os.str());
    }
  }
  return std::nullopt;
}

}  // namespace mcharge::sim
