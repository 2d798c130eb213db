// Zero-overhead tracing & metrics layer.
//
// Two primitives, both usable from any thread:
//
//   OBS_SPAN("blossom.price_scan");      // scoped wall-clock timing span
//   OBS_COUNT("blossom.rounds", 1);      // monotonic counter
//
// Each macro expands to a function-local static site registration (one
// registry lookup per call site for the whole process lifetime) plus a
// handful of relaxed atomic operations — and only when tracing has been
// switched on with `set_enabled(true)` do spans read the clock at all.
// Under -DMCHARGE_NO_OBS=ON every macro compiles out to `((void)0)` and
// the instrumented TUs carry no obs code whatsoever; the registry API
// below stays available (returning empty reports) so callers need no
// #ifdefs of their own.
//
// Determinism: the layer only ever reads clocks and writes its own
// buffers. It never influences an algorithmic decision, so traced and
// untraced runs produce byte-identical plans and SimResults — asserted
// by tests/obs_test.cpp across SIMD backends x fault policies.
//
// Aggregation: `capture()` snapshots every site into a TraceReport
// (sorted by metric name) which renders as versioned JSON
// (`mcharge.trace.v1`, see scripts/check_trace.sh) or a human-readable
// table. Benches expose this as `--trace-out=PATH`; the simulator as
// `SimConfig::trace`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mcharge::obs {

/// What a call site measures.
enum class Kind : std::uint8_t {
  kSpan = 0,     ///< scoped timing: count + accumulated seconds
  kCounter = 1,  ///< monotonic sum of deltas
};

/// One metric in a captured report.
struct MetricSnapshot {
  std::string name;
  Kind kind = Kind::kSpan;
  std::uint64_t count = 0;  ///< span entries / counter increments
  double total_s = 0.0;     ///< spans: accumulated wall seconds
  std::int64_t value = 0;   ///< counters: sum of deltas
};

/// A point-in-time aggregation of every registered site, sorted by name.
struct TraceReport {
  std::vector<MetricSnapshot> metrics;

  /// Versioned JSON (schema "mcharge.trace.v1").
  std::string to_json() const;
  /// Human-readable fixed-width table.
  std::string to_table() const;
};

/// Turns span clock reads and counter updates on or off process-wide.
/// Returns the previous state. Off (the default) leaves only the
/// per-site static-init branch in the hot path.
bool set_enabled(bool on);
bool enabled();

/// Snapshots all sites registered so far.
TraceReport capture();

/// Zeroes every site's accumulators (sites stay registered).
void reset();

/// capture() + to_json() to a file. Returns false on I/O failure.
bool write_trace_json(const std::string& path);

/// Enables tracing for a scope when `on` (restores the prior state on
/// destruction); a no-op scope otherwise. Used by SimConfig::trace.
class EnabledScope {
 public:
  explicit EnabledScope(bool on) : restore_(on) {
    if (on) prev_ = set_enabled(true);
  }
  ~EnabledScope() {
    if (restore_) set_enabled(prev_);
  }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  bool restore_;
  bool prev_ = false;
};

}  // namespace mcharge::obs

#ifndef MCHARGE_NO_OBS

#include <atomic>
#include <chrono>

namespace mcharge::obs {

/// One call site's accumulators. Never destroyed (sites live in a global
/// registry until process exit) so worker threads may touch them during
/// static teardown.
struct Site {
  const char* name;
  Kind kind;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::int64_t> value{0};
};

/// Registers (once) and returns the site for `name`. Call sites cache the
/// result in a function-local static, so the mutex inside is taken once
/// per site per process.
Site& site(const char* name, Kind kind);

/// RAII span body: reads the steady clock on entry/exit only while
/// tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(Site& s) : site_(s), armed_(enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedSpan() {
    if (!armed_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    site_.count.fetch_add(1, std::memory_order_relaxed);
    site_.total_ns.fetch_add(static_cast<std::uint64_t>(ns),
                             std::memory_order_relaxed);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Site& site_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

inline void count_add(Site& s, std::int64_t delta) {
  if (!enabled()) return;
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.value.fetch_add(delta, std::memory_order_relaxed);
}

}  // namespace mcharge::obs

#define MCHARGE_OBS_CAT_(a, b) a##b
#define MCHARGE_OBS_CAT(a, b) MCHARGE_OBS_CAT_(a, b)

#define OBS_SPAN(name_literal)                                             \
  static ::mcharge::obs::Site& MCHARGE_OBS_CAT(obs_site_, __LINE__) =      \
      ::mcharge::obs::site(name_literal, ::mcharge::obs::Kind::kSpan);     \
  ::mcharge::obs::ScopedSpan MCHARGE_OBS_CAT(obs_span_, __LINE__)(         \
      MCHARGE_OBS_CAT(obs_site_, __LINE__))

#define OBS_COUNT(name_literal, delta)                                     \
  do {                                                                     \
    static ::mcharge::obs::Site& obs_site_c_ =                             \
        ::mcharge::obs::site(name_literal, ::mcharge::obs::Kind::kCounter);\
    ::mcharge::obs::count_add(obs_site_c_, (delta));                       \
  } while (0)

#else  // MCHARGE_NO_OBS

#define OBS_SPAN(name_literal) ((void)0)
#define OBS_COUNT(name_literal, delta) ((void)0)

#endif  // MCHARGE_NO_OBS
