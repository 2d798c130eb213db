// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --workload NAME --seed N --meter
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// both print a digest line per simulation, the run facts and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// The exit code is 1 when a correctness check failed, 2 on bad arguments.
//
// --meter runs the workload's items once with an effectively unlimited
// MCV battery and prints quantiles of the per-tour energy draws: the
// calibration behind fault-recovery's pinned capacity.
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "runs.h"
#include "sim/simulation.h"
#include "workload.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--meter]\nworkloads:",
               why);
  for (const WorkloadSpec& spec : workload_specs()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

bool parse_seed(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0;
}

int meter(const WorkloadSpec& spec, std::uint64_t seed) {
  WorkloadSpec metered = spec;
  metered.mcv_capacity_j = 1e15;
  const Workload w = set_up(metered, seed);
  std::vector<double> draws;
  for (const SimItem& item : w.items) {
    mcharge::sim::SimConfig config = item.config;
    config.record_tour_energy = true;
    const auto result = mcharge::sim::simulate(
        w.instances[item.instance],
        *w.schedulers[static_cast<std::size_t>(item.algo)], config);
    draws.insert(draws.end(), result.mcv_tour_energy_j.begin(),
                 result.mcv_tour_energy_j.end());
  }
  std::sort(draws.begin(), draws.end());
  std::printf("metered %zu tour draws (J)\n", draws.size());
  if (draws.empty()) return 0;
  for (const double q : {0.5, 0.85, 0.9, 0.95, 0.99, 1.0}) {
    const auto at = static_cast<std::size_t>(
        q * static_cast<double>(draws.size() - 1));
    std::printf("  q%.2f %.17g\n", q, draws[at]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's allocator at the state its adaptive thresholds reach
  // after the first large free: mmap threshold at its 32 MiB ceiling
  // (64-bit), trim threshold at twice that. Left adaptive, the jump
  // happens at a point of the allocation sequence that depends on the
  // seed, and peak_rss_mb on daily-overload reads 27 or 36 MB by seed.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = -1.0;
  double trace = -1.0;
  bool metering = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--meter") {
      metering = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value after an option");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      if (!parse_seed(value, seed)) return usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_number(value, seconds)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (!parse_number(value, trace)) return usage("bad --trace");
    } else {
      return usage("unknown option");
    }
  }
  const auto spec = find_workload(workload);
  if (!spec) return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing --seed");
  if (metering) return meter(*spec, seed);
  if (!(seconds > 0.0)) return usage("--seconds must be > 0");
  if (trace != 0.0 && trace != 1.0) return usage("--trace must be 0 or 1");

  const Report report = trace == 1.0 ? run_traced(*spec, seed, seconds)
                                     : run_end_to_end(*spec, seed, seconds);

  std::printf("perfbench %s seed=%llu trace=%d\n", spec->name.c_str(),
              static_cast<unsigned long long>(seed),
              static_cast<int>(trace));
  for (const std::string& line : report.digests) {
    std::printf("digest %s\n", line.c_str());
  }
  for (const std::string& line : report.failures) {
    std::printf("FAILED %s\n", line.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("metric %-32s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_frac %.17g (%zu of %zu simulations failed a check)\n",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              report.failed, report.attempted);
  std::printf("facts %s\n", facts_json(report).c_str());
  std::printf("%s\n", result_json(report).c_str());
  return report.correct() ? 0 : 1;
}
