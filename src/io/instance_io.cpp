#include "io/instance_io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/assert.h"

namespace mcharge::io {

namespace {

void fail(std::string* error, const std::string& why) {
  if (error) *error = why;
}

std::vector<std::string> split(const std::string& line, char sep = ',') {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream in(line);
  while (std::getline(in, cell, sep)) cells.push_back(cell);
  return cells;
}

bool parse_doubles(const std::vector<std::string>& cells, std::size_t from,
                   std::vector<double>* out) {
  for (std::size_t i = from; i < cells.size(); ++i) {
    char* end = nullptr;
    const double v = std::strtod(cells[i].c_str(), &end);
    if (end == cells[i].c_str()) return false;
    // The whole cell must be one number (strtod would silently accept
    // "1.5abc"); trailing spaces and the \r of CRLF files are fine.
    while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
    if (*end != '\0') return false;
    out->push_back(v);
  }
  return true;
}

/// True iff `x` holds a non-negative integer exactly.
bool is_index(double x) {
  return std::isfinite(x) && x >= 0.0 && x == std::floor(x);
}

}  // namespace

bool write_instance_csv(const std::string& path,
                        const model::WrsnInstance& instance) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(17);  // lossless double round-trip
  const model::NetworkConfig& c = instance.config;
  out << "# mcharge-instance v1\n";
  out << "config," << c.field_width << ',' << c.field_height << ','
      << c.base_station.x << ',' << c.base_station.y << ',' << c.depot.x
      << ',' << c.depot.y << ',' << c.battery_capacity_j << ','
      << c.charging_radius << ',' << c.charging_rate_w << ',' << c.mcv_speed
      << ',' << c.num_chargers << ',' << c.request_threshold << '\n';
  for (std::size_t v = 0; v < instance.num_sensors(); ++v) {
    out << "sensor," << instance.positions[v].x << ','
        << instance.positions[v].y << ',' << instance.rate_bps[v] << ','
        << instance.consumption_w[v] << '\n';
  }
  return static_cast<bool>(out);
}

std::optional<model::WrsnInstance> read_instance_csv(const std::string& path,
                                                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open " + path);
    return std::nullopt;
  }
  model::WrsnInstance instance;
  bool saw_config = false;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const auto cells = split(line);
    if (cells.empty()) continue;
    std::vector<double> values;
    if (!parse_doubles(cells, 1, &values)) {
      fail(error, "bad number on line " + std::to_string(lineno));
      return std::nullopt;
    }
    if (cells[0] == "config") {
      if (saw_config) {
        fail(error, "duplicate config line on line " + std::to_string(lineno));
        return std::nullopt;
      }
      if (values.size() != 12) {
        fail(error, "config line needs 12 values");
        return std::nullopt;
      }
      for (double v : values) {
        if (!std::isfinite(v)) {
          fail(error, "config contains a non-finite value on line " +
                          std::to_string(lineno));
          return std::nullopt;
        }
      }
      if (values[6] <= 0.0 || values[7] <= 0.0 || values[8] <= 0.0 ||
          values[9] <= 0.0) {
        fail(error,
             "capacity, charging radius, charging rate, and speed must all "
             "be positive");
        return std::nullopt;
      }
      if (!is_index(values[10]) || values[10] < 1.0) {
        fail(error, "num_chargers must be a positive integer");
        return std::nullopt;
      }
      if (values[11] <= 0.0 || values[11] >= 1.0) {
        fail(error, "request threshold must be in (0, 1)");
        return std::nullopt;
      }
      model::NetworkConfig& c = instance.config;
      c.field_width = values[0];
      c.field_height = values[1];
      c.base_station = {values[2], values[3]};
      c.depot = {values[4], values[5]};
      c.battery_capacity_j = values[6];
      c.charging_radius = values[7];
      c.charging_rate_w = values[8];
      c.mcv_speed = values[9];
      c.num_chargers = static_cast<std::size_t>(values[10]);
      c.request_threshold = values[11];
      saw_config = true;
    } else if (cells[0] == "sensor") {
      if (values.size() != 4) {
        fail(error, "sensor line needs 4 values (x, y, rate, consumption)");
        return std::nullopt;
      }
      if (!std::isfinite(values[0]) || !std::isfinite(values[1])) {
        fail(error, "sensor position on line " + std::to_string(lineno) +
                        " is not finite");
        return std::nullopt;
      }
      if (!std::isfinite(values[2]) || values[2] < 0.0 ||
          !std::isfinite(values[3]) || values[3] < 0.0) {
        fail(error, "sensor rate/consumption on line " +
                        std::to_string(lineno) +
                        " must be finite and non-negative");
        return std::nullopt;
      }
      instance.positions.push_back({values[0], values[1]});
      instance.rate_bps.push_back(values[2]);
      instance.consumption_w.push_back(values[3]);
    } else {
      fail(error, "unknown record '" + cells[0] + "' on line " +
                      std::to_string(lineno));
      return std::nullopt;
    }
  }
  if (!saw_config) {
    fail(error, "missing config line");
    return std::nullopt;
  }
  return instance;
}

model::ChargingProblem RoundData::to_problem(geom::Point depot, double gamma,
                                             double speed,
                                             std::size_t num_chargers,
                                             double charging_rate_w) const {
  MCHARGE_ASSERT(deficit_joules.size() == positions.size(),
                 "round data size mismatch");
  std::vector<double> seconds;
  seconds.reserve(deficit_joules.size());
  for (double j : deficit_joules) seconds.push_back(j / charging_rate_w);
  model::ChargingProblem problem(positions, std::move(seconds), depot, gamma,
                                 speed, num_chargers);
  if (!residual_lifetime_s.empty()) {
    MCHARGE_ASSERT(residual_lifetime_s.size() == positions.size(),
                   "lifetimes must match positions");
    problem.set_residual_lifetimes(residual_lifetime_s);
  }
  problem.set_charging_rate(charging_rate_w);
  return problem;
}

bool write_round_csv(const std::string& path, const RoundData& round) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(17);  // lossless double round-trip
  out << "# mcharge-round v1\n";
  const bool lifetimes = !round.residual_lifetime_s.empty();
  for (std::size_t i = 0; i < round.positions.size(); ++i) {
    out << round.positions[i].x << ',' << round.positions[i].y << ','
        << round.deficit_joules[i];
    if (lifetimes) out << ',' << round.residual_lifetime_s[i];
    out << '\n';
  }
  return static_cast<bool>(out);
}

std::optional<RoundData> read_round_csv(const std::string& path,
                                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open " + path);
    return std::nullopt;
  }
  RoundData round;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const auto cells = split(line);
    std::vector<double> values;
    if (!parse_doubles(cells, 0, &values) || values.size() < 3 ||
        values.size() > 4) {
      fail(error, "line " + std::to_string(lineno) +
                      " must be x,y,deficit_j[,lifetime_s]");
      return std::nullopt;
    }
    if (!std::isfinite(values[0]) || !std::isfinite(values[1])) {
      fail(error,
           "position on line " + std::to_string(lineno) + " is not finite");
      return std::nullopt;
    }
    if (!std::isfinite(values[2]) || values[2] < 0.0) {
      fail(error, "deficit on line " + std::to_string(lineno) +
                      " must be finite and non-negative");
      return std::nullopt;
    }
    if (values.size() == 4 &&
        (std::isnan(values[3]) || values[3] < 0.0)) {
      // +inf is a legal lifetime (a sensor that never drains); NaN and
      // negative values are not.
      fail(error, "lifetime on line " + std::to_string(lineno) +
                      " must be non-negative (inf allowed)");
      return std::nullopt;
    }
    round.positions.push_back({values[0], values[1]});
    round.deficit_joules.push_back(values[2]);
    if (values.size() == 4) round.residual_lifetime_s.push_back(values[3]);
  }
  if (!round.residual_lifetime_s.empty() &&
      round.residual_lifetime_s.size() != round.positions.size()) {
    fail(error, "lifetime column must be present on all lines or none");
    return std::nullopt;
  }
  if (round.positions.empty()) {
    fail(error, "no sensors in file");
    return std::nullopt;
  }
  return round;
}

}  // namespace mcharge::io
