// The two kinds of benchmark run and the report they print.
//
// run_end_to_end: tracing off. Sets the workload up several times (median
// set-up time), then simulates whole passes until the time budget is spent
// and reports the end-to-end metrics of BENCHMARK.json.
//
// run_traced: one untraced pass, one pass with the obs layer enabled and
// every round captured, then offline replays of the captured rounds; it
// reports the per-layer metrics.
//
// Both check every simulation: no verifier violation, no kMaxRounds
// truncation, and the same SimResult digest wherever the same simulation
// ran twice (repeated passes; traced against untraced). The traced run
// also requires the K-minMax stage replay and the Appro re-plan to
// reproduce the captured plans bit for bit. The end-to-end run also fails
// when Appro's p99 has fewer than ten samples beyond it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;  ///< simulations run
  std::size_t failed = 0;     ///< simulations that failed a check
  /// One line per failed check: every failed simulation has one, and a
  /// check of the run as a whole (the p99 sample floor) adds its own.
  std::vector<std::string> failures;
  std::vector<std::string> digests;   ///< one line per simulation
  /// Host and run facts, as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> facts;

  bool correct() const { return failures.empty(); }
};

/// `seconds` is the time budget of the timed phase.
Report run_end_to_end(const WorkloadSpec& spec, std::uint64_t seed,
                      double seconds);
Report run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds);

/// Nearest-rank percentile: the smallest sample with at least q * N
/// samples at or below it (q in (0, 1]); 0 for no samples.
double percentile(std::vector<double> samples, double q);
/// How many of `count` samples lie above the nearest-rank q-percentile.
std::size_t samples_beyond(std::size_t count, double q);

/// The benchmark's result line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
std::string result_json(const Report& report);
/// The facts as one JSON object.
std::string facts_json(const Report& report);

}  // namespace perfbench
