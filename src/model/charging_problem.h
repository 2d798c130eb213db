// The scheduler-facing view of one charging round.
//
// When the base station has identified the set V_s of lifetime-critical
// sensors, it freezes a ChargingProblem: the positions of those sensors,
// the charging duration t_v = (C_v - RE_v) / eta needed to fill each one
// (Eq. (1)), the depot, the charging radius gamma, the MCV speed, and K.
// Coverage sets N_c+(v) (Section III-B) are precomputed; they are the
// round's only gamma-disk query (Appro's G_c and H are read off them).
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/point.h"

namespace mcharge::model {

class ChargingProblem {
 public:
  /// An empty problem (no sensors, one MCV, zero radius). Useful as a
  /// placeholder to assign a real problem into.
  ChargingProblem() = default;

  /// `positions` and `charge_seconds` are parallel over the sensors of V_s.
  ChargingProblem(std::vector<geom::Point> positions,
                  std::vector<double> charge_seconds, geom::Point depot,
                  double gamma, double speed, std::size_t num_chargers);

  std::size_t size() const { return positions_.size(); }
  std::size_t num_chargers() const { return num_chargers_; }
  double gamma() const { return gamma_; }
  double speed() const { return speed_; }
  geom::Point depot() const { return depot_; }
  const std::vector<geom::Point>& positions() const { return positions_; }

  geom::Point position(std::uint32_t v) const { return positions_[v]; }
  /// t_v: seconds to fully charge sensor v (Eq. (1)).
  double charge_seconds(std::uint32_t v) const { return charge_seconds_[v]; }
  const std::vector<double>& charge_seconds() const { return charge_seconds_; }

  /// Seconds until sensor v's battery would hit zero under its current
  /// draw (its deadline). +infinity when not provided. Used by the
  /// deadline-driven baselines (K-EDF, NETWRAP, AA); algorithm Appro does
  /// not depend on it.
  double residual_lifetime(std::uint32_t v) const;
  /// Installs per-sensor deadlines (one per sensor; asserted).
  void set_residual_lifetimes(std::vector<double> seconds);

  /// The MCVs' wireless charging rate eta in watts (default 2 W, the
  /// paper's setting). Only used by energy-profit computations (AA);
  /// durations t_v are already rate-normalized.
  double charging_rate_w() const { return charging_rate_w_; }
  void set_charging_rate(double watts);

  /// N_c+(v): sensors within gamma of v's location, v included; sorted.
  const std::vector<std::uint32_t>& coverage(std::uint32_t v) const;

  /// tau(v) = max t_u over N_c+(v) (Eq. (2)): the worst-case sojourn time.
  double tau(std::uint32_t v) const;

  /// True iff an MCV at u and an MCV at v could charge a common sensor,
  /// i.e. N_c+(u) and N_c+(v) intersect (the H-graph edge predicate).
  bool overlapping(std::uint32_t u, std::uint32_t v) const;

  /// Travel time between sensor locations u and v.
  double travel(std::uint32_t u, std::uint32_t v) const;
  /// Travel time between the depot and location v.
  double travel_depot(std::uint32_t v) const;

 private:
  std::vector<geom::Point> positions_;
  std::vector<double> charge_seconds_;
  std::vector<double> residual_lifetime_;  ///< empty = all +infinity
  double charging_rate_w_ = 2.0;
  geom::Point depot_{0.0, 0.0};
  double gamma_ = 0.0;
  double speed_ = 1.0;
  std::size_t num_chargers_ = 1;
  std::vector<std::vector<std::uint32_t>> coverage_;  ///< N_c+ per sensor
  std::vector<double> tau_;                           ///< Eq. (2) per sensor
};

}  // namespace mcharge::model
