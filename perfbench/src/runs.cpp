#include "runs.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "core/appro.h"
#include "obs/obs.h"
#include "replay.h"
#include "util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

using namespace mcharge;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetups = 5;  ///< set-ups behind the median setup_s
/// A p99 read from fewer samples beyond it is one or two outliers.
constexpr std::size_t kMinSamplesBeyondP99 = 10;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* algo_key(Algo a) { return kAlgoKeys[static_cast<std::size_t>(a)]; }

std::string item_label(const Workload& w, std::size_t i) {
  const SimItem& item = w.items[i];
  return "item=" + std::to_string(i) + " algo=" + algo_key(item.algo) +
         " n=" + std::to_string(w.instances[item.instance].num_sensors());
}

/// Flags every simulation of `pass` that fails a check; `reference` (may
/// be null) is a pass of the same items whose digests must match.
std::vector<char> check_pass(const Workload& w, const PassResult& pass,
                             const PassResult* reference,
                             const char* reference_name, Report& report) {
  std::vector<char> bad(pass.items.size(), 0);
  const auto fail = [&](std::size_t i, const std::string& why) {
    bad[i] = 1;
    report.failures.push_back(item_label(w, i) + ": " + why);
  };
  for (std::size_t i = 0; i < pass.items.size(); ++i) {
    const ItemResult& item = pass.items[i];
    if (item.result.verify_violations > 0) {
      fail(i, std::to_string(item.result.verify_violations) +
                  " verifier violation(s)");
    }
    if (item.result.truncated_reason == sim::TruncationReason::kMaxRounds) {
      fail(i, "stopped at SimConfig::max_rounds");
    }
    if (reference != nullptr && item.digest != reference->items[i].digest) {
      fail(i, std::string("SimResult digest differs from the ") +
                  reference_name);
    }
  }
  return bad;
}

void tally(const std::vector<char>& bad, Report& report) {
  report.attempted += bad.size();
  report.failed += static_cast<std::size_t>(
      std::count(bad.begin(), bad.end(), char{1}));
}

void record_digests(const Workload& w, const PassResult& pass,
                    Report& report) {
  std::uint64_t all = 14695981039346656037ULL;
  for (std::size_t i = 0; i < pass.items.size(); ++i) {
    report.digests.push_back(item_label(w, i) + " " +
                             hex(pass.items[i].digest));
    all = (all ^ pass.items[i].digest) * 1099511628211ULL;
  }
  report.facts.emplace_back("pass_digest", quoted(hex(all)));
}

void add_common_facts(const Workload& w, std::uint64_t seed, double seconds,
                      bool traced, Report& report) {
  auto& f = report.facts;
  f.emplace_back("workload", quoted(w.spec.name));
  f.emplace_back("seed", std::to_string(seed));
  f.emplace_back("seconds", number(seconds));
  f.emplace_back("trace", traced ? "1" : "0");
  f.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  f.emplace_back("simd_backend",
                 quoted(simd::backend_name(simd::active_backend())));
  f.emplace_back("compiler", quoted(__VERSION__));
  f.emplace_back("build_type", quoted(PERFBENCH_BUILD_TYPE));
#ifdef MCHARGE_NO_OBS
  f.emplace_back("mcharge_no_obs", "true");
#else
  f.emplace_back("mcharge_no_obs", "false");
#endif
  f.emplace_back("jobs", std::to_string(w.spec.jobs));
  f.emplace_back("simulations_per_pass", std::to_string(w.items.size()));
  f.emplace_back("mcv_capacity_j", number(w.spec.mcv_capacity_j));
}

/// Snapshot lookups over a captured trace report.
class Trace {
 public:
  explicit Trace(obs::TraceReport report) : report_(std::move(report)) {}
  double span_s(const char* name) const {
    const obs::MetricSnapshot* m = find(name);
    return m ? m->total_s : 0.0;
  }
  double value(const char* name) const {
    const obs::MetricSnapshot* m = find(name);
    return m ? static_cast<double>(m->value) : 0.0;
  }
  double count(const char* name) const {
    const obs::MetricSnapshot* m = find(name);
    return m ? static_cast<double>(m->count) : 0.0;
  }

 private:
  const obs::MetricSnapshot* find(const char* name) const {
    for (const obs::MetricSnapshot& m : report_.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  obs::TraceReport report_;
};

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() - 1 - samples_beyond(samples.size(), q)];
}

std::size_t samples_beyond(std::size_t count, double q) {
  if (count == 0) return 0;
  // Nearest rank: ceil(q * N), clamped to [1, N]. The small relative
  // slack keeps q * N that should be integral (0.99 * 1000) from rounding
  // up to the next rank.
  const double exact = q * static_cast<double>(count);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9 * exact));
  rank = std::clamp<std::size_t>(rank, 1, count);
  return count - rank;
}

Report run_end_to_end(const WorkloadSpec& spec, std::uint64_t seed,
                      double seconds) {
  Report report;
  std::vector<double> setup_s;
  Workload w;
  for (std::size_t r = 0; r < kSetups; ++r) {
    const auto start = Clock::now();
    w = set_up(spec, seed);
    setup_s.push_back(seconds_since(start));
  }
  add_common_facts(w, seed, seconds, false, report);

  // Whole passes while the next one still fits the budget (at least one);
  // every later pass must reproduce the first one's digests. Throughput is
  // the median over passes, so one disturbed pass does not move it.
  PassResult first;
  std::vector<double> appro_call_s;
  std::vector<double> years_per_s;
  std::size_t passes = 0;
  const auto start = Clock::now();
  do {
    PassResult pass = run_pass(w, false);
    tally(check_pass(w, pass, passes > 0 ? &first : nullptr, "first pass",
                     report),
          report);
    years_per_s.push_back(pass.sim_years / pass.wall_s);
    for (std::size_t i = 0; i < pass.items.size(); ++i) {
      if (w.items[i].algo != Algo::kAppro) continue;
      const auto& calls = pass.items[i].plan_call_s;
      appro_call_s.insert(appro_call_s.end(), calls.begin(), calls.end());
    }
    const double pass_s = pass.wall_s;
    if (passes++ == 0) first = std::move(pass);
    if (seconds_since(start) + pass_s > seconds) break;
  } while (true);
  const double timed_s = seconds_since(start);
  record_digests(w, first, report);
  const std::size_t beyond_p99 = samples_beyond(appro_call_s.size(), 0.99);
  if (beyond_p99 < kMinSamplesBeyondP99) {
    report.failures.push_back(
        "appro_plan_p99_ms has " + std::to_string(beyond_p99) +
        " samples beyond it, fewer than " +
        std::to_string(kMinSamplesBeyondP99) + ": the workload is too small");
  }

  double tour_h = 0.0;
  double dead_min = 0.0;
  std::size_t appro_items = 0;
  for (std::size_t i = 0; i < first.items.size(); ++i) {
    if (w.items[i].algo != Algo::kAppro) continue;
    tour_h += first.items[i].result.mean_longest_delay_hours();
    dead_min += first.items[i].result.mean_dead_minutes_per_sensor;
    ++appro_items;
  }
  const double per_item = appro_items > 0 ? 1.0 / appro_items : 0.0;

  report.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"sim_years_per_s", median(years_per_s), "1/s"},
      {"appro_plan_p50_ms", 1e3 * percentile(appro_call_s, 0.50), "ms"},
      {"appro_plan_p99_ms", 1e3 * percentile(appro_call_s, 0.99), "ms"},
      {"appro_tour_h", tour_h * per_item, "h"},
      {"appro_dead_min", dead_min * per_item, "min"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  auto& f = report.facts;
  f.emplace_back("setups", std::to_string(setup_s.size()));
  f.emplace_back("passes", std::to_string(passes));
  f.emplace_back("timed_s", number(timed_s));
  f.emplace_back("appro_plan_samples", std::to_string(appro_call_s.size()));
  f.emplace_back("appro_plan_p50_samples_beyond",
                 std::to_string(samples_beyond(appro_call_s.size(), 0.50)));
  f.emplace_back("appro_plan_p99_samples_beyond", std::to_string(beyond_p99));
  return report;
}

Report run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds) {
  Report report;
  const Workload w = set_up(spec, seed);
  add_common_facts(w, seed, seconds, true, report);

  const PassResult plain = run_pass(w, false);
  std::vector<char> bad_plain = check_pass(w, plain, nullptr, "", report);
  record_digests(w, plain, report);

  obs::reset();
  const bool was_enabled = obs::set_enabled(true);
  PassResult traced = run_pass(w, true);
  obs::set_enabled(was_enabled);
  const Trace trace(obs::capture());
  std::vector<char> bad = check_pass(w, traced, &plain, "untraced pass",
                                     report);

  // Replays, per simulation so a mismatch is charged to its simulation.
  const tsp::MinMaxTourOptions kminmax_options;  // as set_up builds K-minMax
  const auto* appro = dynamic_cast<const core::ApproScheduler*>(
      w.schedulers[static_cast<std::size_t>(Algo::kAppro)].get());
  KMinMaxReplay kminmax;
  double kminmax_replayed_busy_s = 0.0;  // wrapper time of replayed items
  ApproReplay appro_replay;
  VerifyReplay verify;
  for (std::size_t i = 0; i < traced.items.size(); ++i) {
    const std::vector<CapturedRound>& rounds = traced.items[i].captured;
    const std::size_t kminmax_before = kminmax.mismatches;
    const std::size_t appro_before = appro_replay.mismatches;
    if (w.items[i].algo == Algo::kKMinMax && w.items[i].replayed) {
      replay_kminmax(rounds, kminmax_options, kminmax);
      const auto& c = traced.items[i].plan_call_s;
      kminmax_replayed_busy_s += std::accumulate(c.begin(), c.end(), 0.0);
    }
    if (w.items[i].algo == Algo::kAppro && appro != nullptr) {
      replay_appro(rounds, *appro, appro_replay);
    }
    replay_verify(rounds, w.items[i].config, verify);
    if (kminmax.mismatches > kminmax_before) {
      bad[i] = 1;
      report.failures.push_back(item_label(w, i) +
                                ": K-minMax stage replay differs from the plan");
    }
    if (appro_replay.mismatches > appro_before) {
      bad[i] = 1;
      report.failures.push_back(item_label(w, i) +
                                ": Appro re-plan differs from the plan");
    }
    traced.items[i].captured = {};
  }
  tally(bad_plain, report);
  tally(bad, report);

  auto& m = report.metrics;
  // Planner wrappers.
  std::array<double, kNumAlgos> calls{};
  std::array<double, kNumAlgos> busy_s{};
  std::array<double, kNumAlgos> sites{};
  for (std::size_t i = 0; i < traced.items.size(); ++i) {
    const auto a = static_cast<std::size_t>(w.items[i].algo);
    const auto& c = traced.items[i].plan_call_s;
    calls[a] += static_cast<double>(c.size());
    busy_s[a] += std::accumulate(c.begin(), c.end(), 0.0);
    sites[a] += static_cast<double>(traced.items[i].plan_sites);
  }
  for (std::size_t a = 0; a < kNumAlgos; ++a) {
    const std::string key = std::string("plan.") + kAlgoKeys[a];
    m.push_back({key + ".calls", calls[a], "count"});
    m.push_back({key + ".busy_s", busy_s[a], "s"});
    m.push_back({key + ".sites", sites[a], "count"});
  }

  // Appro phases (obs spans inside the planner).
  static constexpr const char* kApproPhases[] = {
      "charging_graph_mis", "overlap_graph", "h_mis",
      "k_tours",            "travel_cache",  "insertion"};
  const double appro_plan_s = trace.span_s("appro.plan");
  double phases_s = 0.0;
  for (const char* phase : kApproPhases) {
    const std::string name = std::string("appro.") + phase;
    const double s = trace.span_s(name.c_str());
    phases_s += s;
    m.push_back({name + "_s", s, "s"});
  }
  m.push_back({"appro.plan_s", appro_plan_s, "s"});
  m.push_back({"appro.self_s", appro_plan_s - phases_s, "s"});
  m.push_back({"appro.v_h_per_v_s",
               ratio(static_cast<double>(appro_replay.v_h),
                     static_cast<double>(appro_replay.v_s)),
               "ratio"});

  // Tour substrate, replayed from K-minMax's rounds.
  m.push_back({"tsp.distance_cache_s", kminmax.distance_cache_s, "s"});
  m.push_back({"tsp.build_s", kminmax.build_s, "s"});
  m.push_back({"tsp.improve_s", kminmax.improve_s, "s"});
  m.push_back({"tsp.split_s", kminmax.split_s, "s"});
  m.push_back({"tsp.segment_two_opt_s", kminmax.segment_two_opt_s, "s"});
  m.push_back({"tsp.sites", static_cast<double>(kminmax.sites), "count"});

  // Matching: Christofides sub-stages and the sparse blossom.
  m.push_back({"matching.mst_s", kminmax.mst_s, "s"});
  m.push_back({"matching.odd_match_s", kminmax.odd_match_s, "s"});
  m.push_back({"matching.odd_vertices",
               static_cast<double>(kminmax.odd_vertices), "count"});
  m.push_back({"blossom.solve_s", trace.span_s("blossom.solve"), "s"});
  m.push_back({"blossom.price_scan_s", trace.span_s("blossom.price_scan"),
               "s"});
  // The repair branch is a fallback: how often it fires is the signal.
  m.push_back({"blossom.repairs", trace.count("blossom.repair"), "count"});
  m.push_back({"blossom.rounds_per_solve",
               ratio(static_cast<double>(kminmax.sparse_rounds),
                     static_cast<double>(kminmax.sparse_matchings)),
               "ratio"});

  // Execution, recovery and verification.
  m.push_back({"exec.multinode_s", trace.span_s("exec.multinode"), "s"});
  m.push_back({"exec.one_to_one_s", trace.span_s("exec.one_to_one"), "s"});
  m.push_back({"exec.recover_round_s", trace.span_s("exec.recover_round"),
               "s"});
  m.push_back({"exec.grafted_stops", trace.value("exec.grafted_stops"),
               "count"});
  m.push_back({"exec.energy_aborts", trace.value("exec.energy_aborts"),
               "count"});
  m.push_back({"verify.s", verify.verify_s, "s"});
  m.push_back({"sim.faulty_rounds", trace.value("sim.faulty_rounds"),
               "count"});

  // Simulator round loop.
  double rounds = 0.0;
  for (const ItemResult& item : traced.items) {
    rounds += static_cast<double>(item.result.rounds);
  }
  const double round_s = trace.span_s("sim.round");
  const double plan_s = trace.span_s("sim.plan");
  const double crossing_s = trace.span_s("sim.crossing_scan");
  const double select_s = trace.span_s("sim.select_scan");
  m.push_back({"sim.rounds", rounds, "count"});
  m.push_back({"sim.round_s", round_s, "s"});
  m.push_back({"sim.plan_s", plan_s, "s"});
  m.push_back({"sim.crossing_scan_s", crossing_s, "s"});
  m.push_back({"sim.select_scan_s", select_s, "s"});
  m.push_back({"sim.other_s", round_s - plan_s - crossing_s - select_s, "s"});

  // Sweep pool, measured on the untraced pass.
  double item_busy_s = 0.0;
  for (const ItemResult& item : plain.items) {
    item_busy_s += item.end_s - item.start_s;
  }
  const double jobs = static_cast<double>(std::max<std::size_t>(1, w.spec.jobs));
  m.push_back({"pool.item_busy_s", item_busy_s, "s"});
  m.push_back({"pool.efficiency", ratio(item_busy_s, jobs * plain.wall_s),
               "ratio"});
  m.push_back({"pool.tail_s", plain.tail_s, "s"});

  m.push_back({"model.make_instance_s", w.make_instance_s, "s"});
  m.push_back({"model.instances", static_cast<double>(w.instances.size()),
               "count"});
  m.push_back({"trace_overhead", ratio(traced.wall_s, plain.wall_s), "ratio"});

  auto& f = report.facts;
  f.emplace_back("untraced_pass_s", number(plain.wall_s));
  f.emplace_back("traced_pass_s", number(traced.wall_s));
  f.emplace_back("kminmax_replayed_rounds", std::to_string(kminmax.rounds));
  // How much of the replayed simulations' plan.kminmax.busy_s the five
  // stages account for: a diagnostic of the replay, not a layer cost.
  f.emplace_back("tsp_share_of_kminmax_busy",
                 number(ratio(kminmax.stages_s(), kminmax_replayed_busy_s)));
  f.emplace_back("appro_replayed_rounds", std::to_string(appro_replay.rounds));
  f.emplace_back("verified_schedules", std::to_string(verify.schedules));
  f.emplace_back("verified_faulty_schedules",
                 std::to_string(verify.faulty_schedules));
  return report;
}

std::string result_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}}";
}

std::string facts_json(const Report& report) {
  std::string out = "{";
  for (std::size_t i = 0; i < report.facts.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(report.facts[i].first) + ": " + report.facts[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
