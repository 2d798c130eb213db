// Same-bytes gate: a fixed matrix of whole simulations whose SimResult
// digests are pinned in tests/data/golden_digests.txt.
//
// The matrix: the five paper algorithms x uniform and clustered layouts x
// two sizes over a 2-month horizon, Appro under faults once per recovery
// policy, Appro under a binding MCV budget, and Appro with epoch dispatch.
// Instances are read through io from checked-in CSV fixtures written with
// 17 significant digits, which round-trip losslessly, so the generators'
// pow/log/cos never reach the gate: downstream of the fixtures only
// + - * / and sqrt touch the bytes. Each digest is FNV-1a over every
// SimResult field, doubles by bit pattern.
//
// The digests hold for every SIMD backend and with tracing on or off (the
// repo's byte-identity contract), so the scalar-only and no-obs builds run
// this same file. A change that moves bytes on purpose regenerates it and
// shows the diff:
//
//   MCHARGE_GOLDEN_UPDATE=1 build/tests/golden_digest_test
//
// ctest never sets the variable. The fixtures stay as checked in: they were
// written once by io::write_instance_csv from model::make_instance with the
// default NetworkConfig (uniform_200/800 and clustered_200/800 from seeds
// 2401-2404, in that order).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aa.h"
#include "baselines/kedf.h"
#include "baselines/kminmax.h"
#include "baselines/netwrap.h"
#include "core/appro.h"
#include "io/instance_io.h"
#include "model/network.h"
#include "sim/simulation.h"
#include "util/stats.h"

namespace mcharge {
namespace {

const std::string kDataDir = MCHARGE_TEST_DATA_DIR;
const std::string kDigestFile = kDataDir + "/golden_digests.txt";

struct Fixture {
  const char* name;
  std::size_t n;
};

constexpr Fixture kFixtures[] = {
    {"uniform_200", 200},
    {"uniform_800", 800},
    {"clustered_200", 200},
    {"clustered_800", 800},
};

std::string fixture_path(const Fixture& f) {
  return kDataDir + "/golden_" + f.name + ".csv";
}

class Fnv {
 public:
  template <typename T>
  void add(T value) {
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    for (const unsigned char b : raw) hash_ = (hash_ ^ b) * 1099511628211ULL;
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T& v : values) add(v);
  }
  void add_stats(const RunningStats& s) {
    add(s.count());
    add(s.mean());
    add(s.variance());
    add(s.min());
    add(s.max());
    add(s.sum());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t digest(const sim::SimResult& r) {
  Fnv f;
  f.add(r.rounds);
  f.add(r.sensors_charged);
  f.add(r.total_dead_seconds);
  f.add(r.mean_dead_minutes_per_sensor);
  f.add_stats(r.round_longest_delay_s);
  f.add_stats(r.round_batch_size);
  f.add_stats(r.request_latency_s);
  f.add(r.total_conflict_wait_s);
  f.add(r.verify_violations);
  f.add(r.busy_fraction);
  f.add_all(r.dead_seconds_per_sensor);
  f.add_all(r.charges_per_sensor);
  f.add_all(r.dead_seconds_by_month);
  f.add(r.rounds_log.size());
  for (const sim::RoundLog& log : r.rounds_log) {
    f.add(log.dispatch_time);
    f.add(log.batch);
    f.add(log.charged);
    f.add(log.longest_delay_s);
    f.add(log.wait_s);
    f.add(log.breakdowns);
    f.add(log.recovered);
    f.add(log.deferred);
    f.add(log.extra_delay_s);
    f.add(log.energy_aborts);
    f.add(log.energy_spent_j);
    f.add(log.energy_max_tour_j);
  }
  f.add(r.truncated);
  f.add(r.truncated_reason);
  f.add(r.mcv_breakdowns);
  f.add(r.sensors_failed);
  f.add(r.recovered_sensors);
  f.add(r.deferred_sensors);
  f.add(r.extra_recovery_delay_s);
  f.add(r.mcv_energy_exhausted);
  f.add(r.mcv_energy_spent_j);
  f.add(r.mcv_energy_max_tour_j);
  f.add_all(r.mcv_tour_energy_j);
  return f.value();
}

sim::SimConfig two_months() {
  sim::SimConfig config;
  config.monitoring_period_s = 60.0 * 86400.0;
  config.initial_level_fraction = 0.3;
  config.record_rounds = true;
  return config;
}

/// bench/fault_ablation's fault mix at its highest breakdown rate.
sim::SimConfig faulty(core::RecoveryPolicy policy) {
  sim::SimConfig config = two_months();
  config.faults.seed = 77;
  config.faults.mcv_breakdown_prob = 0.25;
  config.faults.travel_jitter = 0.1;
  config.faults.charge_jitter = 0.05;
  config.faults.dispatch_delay_prob = 0.1;
  config.faults.dispatch_delay_max_s = 1800.0;
  config.recovery = policy;
  return config;
}

struct Case {
  std::string name;
  std::size_t fixture;  ///< index into kFixtures
  std::shared_ptr<const sched::Scheduler> scheduler;
  sim::SimConfig config;
};

std::vector<Case> matrix() {
  const std::vector<std::pair<std::string,
                              std::shared_ptr<const sched::Scheduler>>>
      algorithms = {
          {"appro", std::make_shared<core::ApproScheduler>()},
          {"kedf", std::make_shared<baselines::KEdfScheduler>()},
          {"netwrap", std::make_shared<baselines::NetwrapScheduler>()},
          {"aa", std::make_shared<baselines::AaScheduler>()},
          {"kminmax", std::make_shared<baselines::KMinMaxScheduler>()},
      };
  std::vector<Case> cases;
  for (const auto& [algo, scheduler] : algorithms) {
    for (std::size_t i = 0; i < std::size(kFixtures); ++i) {
      cases.push_back({algo + "/" + kFixtures[i].name, i, scheduler,
                       two_months()});
    }
  }
  const auto appro = algorithms.front().second;
  constexpr std::size_t kUniform800 = 1;
  cases.push_back({"appro/faults/defer", kUniform800, appro,
                   faulty(core::RecoveryPolicy::kDefer)});
  cases.push_back({"appro/faults/graft", kUniform800, appro,
                   faulty(core::RecoveryPolicy::kGraft)});
  cases.push_back({"appro/faults/replan", kUniform800, appro,
                   faulty(core::RecoveryPolicy::kReplan)});
  sim::SimConfig budget = two_months();
  budget.mcv_budget.capacity_j = 1.0e6;
  budget.record_tour_energy = true;
  budget.recovery = core::RecoveryPolicy::kGraft;
  cases.push_back({"appro/budget", kUniform800, appro, budget});
  sim::SimConfig epoch = two_months();
  epoch.dispatch_epoch_s = 86400.0;
  constexpr std::size_t kClustered800 = 3;
  cases.push_back({"appro/epoch_1d", kClustered800, appro, epoch});
  return cases;
}

std::map<std::string, std::string> read_digests() {
  std::map<std::string, std::string> pinned;
  std::ifstream in(kDigestFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    fields >> name >> hex;
    pinned[name] = hex;
  }
  return pinned;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(GoldenDigest, SimResultsMatchCheckedInFile) {
  const char* update_env = std::getenv("MCHARGE_GOLDEN_UPDATE");
  const bool update = update_env != nullptr && *update_env != '\0';
  std::vector<model::WrsnInstance> instances;
  for (const Fixture& f : kFixtures) {
    std::string error;
    auto instance = io::read_instance_csv(fixture_path(f), &error);
    ASSERT_TRUE(instance.has_value()) << error;
    ASSERT_EQ(instance->num_sensors(), f.n);
    instances.push_back(std::move(*instance));
  }

  const auto pinned = read_digests();
  std::ostringstream rewritten;
  rewritten << "# SimResult FNV-1a digests of tests/golden_digest_test.cpp's"
               " matrix.\n# Regenerate: MCHARGE_GOLDEN_UPDATE=1 "
               "build/tests/golden_digest_test\n";
  const std::vector<Case> cases = matrix();
  if (!update) {
    EXPECT_EQ(pinned.size(), cases.size());
  }
  for (const Case& c : cases) {
    const sim::SimResult result =
        sim::simulate(instances[c.fixture], *c.scheduler, c.config);
    EXPECT_EQ(result.verify_violations, 0u) << c.name;
    EXPECT_NE(result.truncated_reason, sim::TruncationReason::kMaxRounds)
        << c.name;
    EXPECT_GT(result.rounds, 0u) << c.name;
    if (c.config.mcv_budget.enabled()) {
      // The budget must bind, or the case stops covering aborts.
      EXPECT_GT(result.mcv_energy_exhausted, 0u) << c.name;
    }
    const std::string got = hex64(digest(result));
    rewritten << c.name << ' ' << got << '\n';
    if (!update) {
      const auto it = pinned.find(c.name);
      ASSERT_NE(it, pinned.end()) << c.name << " has no pinned digest";
      EXPECT_EQ(it->second, got) << c.name << " changed its SimResult bytes";
    }
  }
  if (update) {
    std::ofstream out(kDigestFile);
    out << rewritten.str();
    ASSERT_TRUE(static_cast<bool>(out)) << "cannot write " << kDigestFile;
  }
}

}  // namespace
}  // namespace mcharge
