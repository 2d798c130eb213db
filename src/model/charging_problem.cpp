#include "model/charging_problem.h"

#include <algorithm>
#include <limits>

#include "geometry/grid_index.h"
#include "util/assert.h"

namespace mcharge::model {

ChargingProblem::ChargingProblem(std::vector<geom::Point> positions,
                                 std::vector<double> charge_seconds,
                                 geom::Point depot, double gamma, double speed,
                                 std::size_t num_chargers)
    : positions_(std::move(positions)),
      charge_seconds_(std::move(charge_seconds)),
      depot_(depot),
      gamma_(gamma),
      speed_(speed),
      num_chargers_(num_chargers) {
  MCHARGE_ASSERT(charge_seconds_.size() == positions_.size(),
                 "one charging duration per sensor required");
  MCHARGE_ASSERT(gamma_ >= 0.0, "charging radius must be >= 0");
  MCHARGE_ASSERT(speed_ > 0.0, "MCV speed must be positive");
  MCHARGE_ASSERT(num_chargers_ >= 1, "at least one MCV required");
  for (double t : charge_seconds_) {
    MCHARGE_ASSERT(t >= 0.0, "charging durations must be >= 0");
  }

  coverage_.resize(positions_.size());
  tau_.resize(positions_.size());
  if (positions_.empty()) return;
  const double cell = gamma_ > 0.0 ? gamma_ : 1.0;
  geom::GridIndex index(positions_, cell);
  for (std::uint32_t v = 0; v < positions_.size(); ++v) {
    coverage_[v] = index.query_disk(positions_[v], gamma_);
    // query_disk includes v itself (distance 0); results come sorted.
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

const std::vector<std::uint32_t>& ChargingProblem::coverage(
    std::uint32_t v) const {
  MCHARGE_ASSERT(v < coverage_.size(), "sensor index out of range");
  return coverage_[v];
}

double ChargingProblem::tau(std::uint32_t v) const {
  MCHARGE_ASSERT(v < tau_.size(), "sensor index out of range");
  return tau_[v];
}

bool ChargingProblem::overlapping(std::uint32_t u, std::uint32_t v) const {
  const auto& cu = coverage(u);
  const auto& cv = coverage(v);
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
