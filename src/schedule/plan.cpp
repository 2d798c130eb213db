#include "schedule/plan.h"

#include <algorithm>

#include "energy/mcv_battery.h"

namespace mcharge::sched {

std::size_t ChargingPlan::total_stops() const {
  std::size_t total = 0;
  for (const auto& tour : tours) total += tour.size();
  return total;
}

geom::Point ChargingPlan::start_of(std::size_t k, geom::Point depot) const {
  if (starts.empty()) return depot;
  return starts[k];
}

double ChargingSchedule::longest_delay() const {
  double worst = 0.0;
  for (const auto& mcv : mcvs) worst = std::max(worst, mcv.return_time);
  return worst;
}

double ChargingSchedule::total_wait() const {
  double total = 0.0;
  for (const auto& mcv : mcvs) {
    for (const auto& s : mcv.sojourns) total += s.wait();
  }
  return total;
}

std::size_t ChargingSchedule::num_stops() const {
  std::size_t total = 0;
  for (const auto& mcv : mcvs) total += mcv.sojourns.size();
  return total;
}

bool ChargingSchedule::partial() const {
  return std::any_of(mcvs.begin(), mcvs.end(),
                     [](const McvSchedule& m) { return m.aborted; });
}

std::size_t ChargingSchedule::num_aborted() const {
  std::size_t total = 0;
  for (const auto& mcv : mcvs) total += mcv.aborted ? 1 : 0;
  return total;
}

bool ChargingSchedule::all_charged() const {
  return std::all_of(charged_at.begin(), charged_at.end(),
                     [](double t) { return t != kNeverCharged; });
}

std::vector<ChargingSchedule::EnergyUse> ChargingSchedule::energy_use(
    const model::ChargingProblem& problem) const {
  std::vector<EnergyUse> use(mcvs.size());
  for (std::size_t k = 0; k < mcvs.size(); ++k) {
    const auto& mcv = mcvs[k];
    double meters = 0.0;
    if (!mcv.sojourns.empty()) {
      const geom::Point start =
          k < starts.size() ? starts[k] : problem.depot();
      meters += geom::distance(start,
                               problem.position(mcv.sojourns.front().location));
      for (std::size_t i = 0; i + 1 < mcv.sojourns.size(); ++i) {
        meters += geom::distance(
            problem.position(mcv.sojourns[i].location),
            problem.position(mcv.sojourns[i + 1].location));
      }
      // An aborted tour ended in the field: it never drove home.
      if (!mcv.aborted) {
        meters += geom::distance(
            problem.position(mcv.sojourns.back().location), problem.depot());
      }
    }
    use[k].locomotion_j = energy::kMoveCostJPerM * meters;
    for (const auto& s : mcv.sojourns) {
      use[k].delivered_j += s.duration() * problem.charging_rate_w();
    }
  }
  return use;
}

}  // namespace mcharge::sched
