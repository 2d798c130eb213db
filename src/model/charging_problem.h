// The scheduler-facing view of one charging round.
//
// When the base station has identified the set V_s of lifetime-critical
// sensors, it freezes a ChargingProblem: the positions of those sensors,
// the charging duration t_v = (C_v - RE_v) / eta needed to fill each one
// (Eq. (1)), the depot, the charging radius gamma, the MCV speed, and K.
// Coverage sets N_c+(v) (Section III-B) are precomputed; Appro's G_c and
// H are read off them. Sensors never move, so a simulation finds every
// sensor's N_c+ once (CoverageLists) and hands each round the lists
// induced on its batch: no round runs a gamma-disk query.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geometry/point.h"

namespace mcharge::model {

/// The gamma-neighbour lists N_c+(v) of a point set, as one CSR array:
/// row v holds the ids within gamma of point v (v included), ascending.
class CoverageLists {
 public:
  /// Marks a point that is not a member of an induced() sub-graph.
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  CoverageLists() = default;

  /// One grid disk query per point (geom::GridIndex::visit_disk, cell
  /// gamma, or 1 m when gamma is 0).
  CoverageLists(const std::vector<geom::Point>& points, double gamma);

  std::size_t size() const { return start_.empty() ? 0 : start_.size() - 1; }

  std::span<const std::uint32_t> operator[](std::uint32_t v) const {
    return {ids_.data() + start_[v], ids_.data() + start_[v + 1]};
  }

  /// The lists of the sub-graph induced by `members`, strictly ascending
  /// ids of this set: row i holds the positions in `members` of the
  /// members within gamma of members[i]. Rows of this set are sorted by
  /// id and the positions keep that order, so the rows come out sorted
  /// and equal to a fresh CoverageLists over the members' points.
  /// `slot` is scratch of size() entries, all kNoSlot; it is left so.
  CoverageLists induced(std::span<const std::uint32_t> members,
                        std::vector<std::uint32_t>& slot) const;

 private:
  std::vector<std::uint32_t> start_;  ///< size() + 1 offsets into ids_
  std::vector<std::uint32_t> ids_;
};

class ChargingProblem {
 public:
  /// An empty problem (no sensors, one MCV, zero radius). Useful as a
  /// placeholder to assign a real problem into.
  ChargingProblem() = default;

  /// `positions` and `charge_seconds` are parallel over the sensors of V_s.
  /// Builds the coverage lists with CoverageLists(positions, gamma).
  ChargingProblem(std::vector<geom::Point> positions,
                  std::vector<double> charge_seconds, geom::Point depot,
                  double gamma, double speed, std::size_t num_chargers);

  /// As above, with the coverage lists supplied: they must equal
  /// CoverageLists(positions, gamma), e.g. a superset's lists induced on
  /// these sensors (CoverageLists::induced).
  ChargingProblem(std::vector<geom::Point> positions,
                  std::vector<double> charge_seconds, CoverageLists coverage,
                  geom::Point depot, double gamma, double speed,
                  std::size_t num_chargers);

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
  std::span<const std::uint32_t> coverage(std::uint32_t v) const;
  /// Every sensor's N_c+, e.g. to induce a sub-problem's lists from.
  const CoverageLists& coverage_lists() const { return coverage_; }

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
  CoverageLists coverage_;   ///< N_c+ per sensor
  std::vector<double> tau_;  ///< Eq. (2) per sensor
};

}  // namespace mcharge::model
