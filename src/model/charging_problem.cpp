#include "model/charging_problem.h"

#include <algorithm>
#include <limits>

#include "geometry/grid_index.h"
#include "util/assert.h"

namespace mcharge::model {

CoverageLists::CoverageLists(const std::vector<geom::Point>& points,
                             double gamma) {
  MCHARGE_ASSERT(gamma >= 0.0, "charging radius must be >= 0");
  start_.reserve(points.size() + 1);
  start_.push_back(0);
  if (points.empty()) return;
  const geom::GridIndex index(points, gamma > 0.0 ? gamma : 1.0);
  for (const geom::Point& p : points) {
    // visit_disk includes the point itself (distance 0); sorting its hits
    // gives GridIndex::query_disk's list.
    index.visit_disk(p, gamma, [&](std::uint32_t u) {
      ids_.push_back(u);
      return true;
    });
    std::sort(ids_.begin() + start_.back(), ids_.end());
    MCHARGE_ASSERT(ids_.size() <= std::numeric_limits<std::uint32_t>::max(),
                   "coverage lists overflow 32-bit offsets");
    start_.push_back(static_cast<std::uint32_t>(ids_.size()));
  }
}

CoverageLists CoverageLists::induced(std::span<const std::uint32_t> members,
                                     std::vector<std::uint32_t>& slot) const {
  MCHARGE_ASSERT(slot.size() == size(), "one slot per point required");
  std::size_t upper = 0;
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    const std::uint32_t v = members[i];
    MCHARGE_ASSERT(v < size() && (i == 0 || members[i - 1] < v),
                   "members must be strictly ascending ids of the set");
    slot[v] = i;
    upper += start_[v + 1] - start_[v];
  }
  CoverageLists out;
  out.start_.reserve(members.size() + 1);
  out.ids_.reserve(upper);
  out.start_.push_back(0);
  for (const std::uint32_t v : members) {
    for (const std::uint32_t u : (*this)[v]) {
      if (slot[u] != kNoSlot) out.ids_.push_back(slot[u]);
    }
    out.start_.push_back(static_cast<std::uint32_t>(out.ids_.size()));
  }
  for (const std::uint32_t v : members) slot[v] = kNoSlot;
  return out;
}

ChargingProblem::ChargingProblem(std::vector<geom::Point> positions,
                                 std::vector<double> charge_seconds,
                                 geom::Point depot, double gamma, double speed,
                                 std::size_t num_chargers)
    : ChargingProblem(positions, std::move(charge_seconds),
                      CoverageLists(positions, gamma), depot, gamma, speed,
                      num_chargers) {}

ChargingProblem::ChargingProblem(std::vector<geom::Point> positions,
                                 std::vector<double> charge_seconds,
                                 CoverageLists coverage, geom::Point depot,
                                 double gamma, double speed,
                                 std::size_t num_chargers)
    : positions_(std::move(positions)),
      charge_seconds_(std::move(charge_seconds)),
      depot_(depot),
      gamma_(gamma),
      speed_(speed),
      num_chargers_(num_chargers),
      coverage_(std::move(coverage)) {
  MCHARGE_ASSERT(charge_seconds_.size() == positions_.size(),
                 "one charging duration per sensor required");
  MCHARGE_ASSERT(coverage_.size() == positions_.size(),
                 "one coverage list per sensor required");
  MCHARGE_ASSERT(gamma_ >= 0.0, "charging radius must be >= 0");
  MCHARGE_ASSERT(speed_ > 0.0, "MCV speed must be positive");
  MCHARGE_ASSERT(num_chargers_ >= 1, "at least one MCV required");
  for (double t : charge_seconds_) {
    MCHARGE_ASSERT(t >= 0.0, "charging durations must be >= 0");
  }

  tau_.resize(positions_.size());
  for (std::uint32_t v = 0; v < positions_.size(); ++v) {
    double worst = 0.0;
    for (std::uint32_t u : coverage_[v]) {
      worst = std::max(worst, charge_seconds_[u]);
    }
    tau_[v] = worst;
  }
}

double ChargingProblem::residual_lifetime(std::uint32_t v) const {
  MCHARGE_ASSERT(v < positions_.size(), "sensor index out of range");
  if (residual_lifetime_.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  return residual_lifetime_[v];
}

void ChargingProblem::set_residual_lifetimes(std::vector<double> seconds) {
  MCHARGE_ASSERT(seconds.size() == positions_.size(),
                 "one residual lifetime per sensor required");
  residual_lifetime_ = std::move(seconds);
}

void ChargingProblem::set_charging_rate(double watts) {
  MCHARGE_ASSERT(watts > 0.0, "charging rate must be positive");
  charging_rate_w_ = watts;
}

std::span<const std::uint32_t> ChargingProblem::coverage(
    std::uint32_t v) const {
  MCHARGE_ASSERT(v < coverage_.size(), "sensor index out of range");
  return coverage_[v];
}

double ChargingProblem::tau(std::uint32_t v) const {
  MCHARGE_ASSERT(v < tau_.size(), "sensor index out of range");
  return tau_[v];
}

bool ChargingProblem::overlapping(std::uint32_t u, std::uint32_t v) const {
  const auto cu = coverage(u);
  const auto cv = coverage(v);
  // Sorted-list intersection test.
  std::size_t i = 0, j = 0;
  while (i < cu.size() && j < cv.size()) {
    if (cu[i] == cv[j]) return true;
    if (cu[i] < cv[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

double ChargingProblem::travel(std::uint32_t u, std::uint32_t v) const {
  return geom::distance(positions_[u], positions_[v]) / speed_;
}

double ChargingProblem::travel_depot(std::uint32_t v) const {
  return geom::distance(depot_, positions_[v]) / speed_;
}

}  // namespace mcharge::model
