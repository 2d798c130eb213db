// Bitwise determinism of sim::simulate across sweep worker counts and SIMD
// backends.
//
// The contract under test: for a fixed instance and config, the full
// SimResult — every scalar, every per-sensor vector, every RunningStats
// moment, every RoundLog entry — is bit-identical no matter which SIMD
// backend serves the kernels and no matter how many parallel_for workers
// run the simulations side by side (the one grain of parallelism: each
// simulation is an independent sweep item writing its own slot).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/appro.h"
#include "sim/simulation.h"
#include "sim_compare.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace mcharge::sim {
namespace {

struct Variant {
  double dispatch_epoch_s;
  const char* tag;
};

TEST(SimDeterminism, ByteIdenticalAcrossJobsAndBackends) {
  Rng rng(77);
  auto instance = model::make_instance(model::NetworkConfig{}, 300, rng);
  // Load the fleet so the run has dead sensors, censored rounds, and big
  // batches — every accounting path, not just the easy ones.
  for (auto& w : instance.consumption_w) w *= 3.0;
  core::ApproScheduler appro;

  const Variant variants[] = {
      {0.0, "on-demand"},
      {86400.0, "epoch"},
  };
  std::vector<SimConfig> configs;
  for (const Variant& variant : variants) {
    SimConfig config;
    config.monitoring_period_s = 60.0 * 86400.0;
    config.record_rounds = true;
    config.dispatch_epoch_s = variant.dispatch_epoch_s;
    configs.push_back(config);
  }

  // Reference: one simulation at a time, scalar kernels.
  std::vector<SimResult> reference;
  {
    BackendGuard guard(simd::Backend::kScalar);
    for (const SimConfig& config : configs) {
      reference.push_back(simulate(instance, appro, config));
      ASSERT_GT(reference.back().rounds, 0u);
    }
  }

  for (simd::Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (std::size_t jobs : {std::size_t{1}, std::size_t{2},
                             std::size_t{8}}) {
      std::vector<SimResult> got(configs.size());
      parallel_for(
          configs.size(),
          [&](std::size_t i) {
            got[i] = simulate(instance, appro, configs[i]);
          },
          jobs);
      for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(std::string(variants[i].tag) + " jobs=" +
                     std::to_string(jobs) + " backend=" +
                     simd::backend_name(b));
        expect_results_identical(reference[i], got[i]);
      }
    }
  }
}

TEST(SimDeterminism, JobsZeroUsesDefaultAndStaysIdentical) {
  Rng rng(78);
  const auto instance =
      model::make_instance(model::NetworkConfig{}, 200, rng);
  core::ApproScheduler appro;
  SimConfig config;
  config.monitoring_period_s = 45.0 * 86400.0;
  config.record_rounds = true;
  const SimResult reference = simulate(instance, appro, config);
  // The same simulation as four concurrent sweep items on default_jobs().
  std::vector<SimResult> got(4);
  parallel_for(
      got.size(),
      [&](std::size_t i) { got[i] = simulate(instance, appro, config); },
      0);
  for (const SimResult& result : got) {
    expect_results_identical(reference, result);
  }
}

}  // namespace
}  // namespace mcharge::sim
