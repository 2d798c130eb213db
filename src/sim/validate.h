// Up-front validation of simulation inputs.
//
// simulate() requires a coherent instance + config; historically a bad
// value (zero MCV speed, a negative horizon, NaN sensor positions) tripped
// an assert deep inside the round loop — or worse, spun silently.
// validate_sim_inputs() checks everything before the loop starts and
// reports a structured error, so a caller that must survive hostile input
// (the simulate_campaign CLI, the figure benches) calls it, or one of its
// two halves, before make_instance() or simulate().
#pragma once

#include <optional>
#include <string>

#include "model/network.h"
#include "sim/simulation.h"

namespace mcharge::sim {

enum class ConfigErrorCode {
  kEmptyFleet,           ///< num_chargers < 1
  kBadCapacity,          ///< battery capacity not positive/finite
  kBadChargingRate,      ///< charging rate not positive/finite
  kBadSpeed,             ///< MCV speed not positive/finite
  kBadChargingRadius,    ///< charging radius not positive/finite
  kBadThreshold,         ///< request threshold outside (0, 1)
  kBadDataRate,          ///< data rates not 0 <= rate_min <= rate_max
  kBadHorizon,           ///< monitoring period not in (0, kMaxHorizonS]
  kBadInitialLevel,      ///< initial level fraction outside [0, 1]
  kBadEpoch,             ///< dispatch epoch negative or non-finite
  kBadMaxRounds,         ///< max_rounds == 0
  kBadFaultConfig,       ///< fault probability/jitter out of range
  kNonFiniteSensorData,  ///< NaN/Inf position, bad or missing consumption
  kBadMcvBudget,         ///< MCV energy budget spec out of range
};

struct ConfigError {
  ConfigErrorCode code;
  std::string message;  ///< human-readable, names the offending field
};

/// Checks the network constants (every precondition of make_instance()
/// and of simulate() that `net` alone decides). Nullopt = valid.
std::optional<ConfigError> validate_network(const model::NetworkConfig& net);

/// Checks the simulation settings alone (horizon, epoch, faults, MCV
/// budget). Nullopt = valid.
std::optional<ConfigError> validate_sim_config(const SimConfig& config);

/// Checks `instance` + `config` for every precondition of simulate():
/// both checks above, then the per-sensor arrays. Returns nullopt when the
/// inputs are valid. An empty network (zero sensors) is valid — simulate()
/// returns an empty result for it.
std::optional<ConfigError> validate_sim_inputs(
    const model::WrsnInstance& instance, const SimConfig& config);

}  // namespace mcharge::sim
