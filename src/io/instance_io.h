// CSV persistence for WRSN instances and charging rounds.
//
// Formats are line-oriented, '#'-comments allowed, designed to be easy to
// produce from spreadsheets or scripts:
//
// Instance file:
//   # mcharge-instance v1
//   config,<field_w>,<field_h>,<bs_x>,<bs_y>,<depot_x>,<depot_y>,
//          <capacity_j>,<gamma>,<eta_w>,<speed>,<K>,<threshold>
//   sensor,<x>,<y>,<rate_bps>,<consumption_w>
//   ... one sensor line per node, in sensor-index order ...
//
// Both readers reject malformed input with a structured error instead of
// crashing: short/long rows (a sensor row has exactly 4 values),
// non-numeric or NaN/Inf fields, non-positive physical constants,
// duplicate config lines.
//
// Round file (one charging round, the fleet_planner input):
//   # mcharge-round v1
//   <x>,<y>,<deficit_joules>[,<residual_lifetime_s>]
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model/charging_problem.h"
#include "model/network.h"

namespace mcharge::io {

/// Writes the instance (config + per-sensor rows). Returns false on I/O
/// failure.
bool write_instance_csv(const std::string& path,
                        const model::WrsnInstance& instance);

/// Reads an instance written by write_instance_csv. Returns nullopt on
/// parse or I/O failure (a short reason is appended to `error` if given).
std::optional<model::WrsnInstance> read_instance_csv(const std::string& path,
                                                     std::string* error = nullptr);

/// One charging round in file form.
struct RoundData {
  std::vector<geom::Point> positions;
  std::vector<double> deficit_joules;
  std::vector<double> residual_lifetime_s;  ///< empty if absent from file

  /// Builds the scheduler-facing problem (deficits converted to seconds at
  /// `charging_rate_w`).
  model::ChargingProblem to_problem(geom::Point depot, double gamma,
                                    double speed, std::size_t num_chargers,
                                    double charging_rate_w) const;
};

bool write_round_csv(const std::string& path, const RoundData& round);
std::optional<RoundData> read_round_csv(const std::string& path,
                                        std::string* error = nullptr);

}  // namespace mcharge::io
