#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <mutex>

namespace mcharge::obs {
namespace {

std::atomic<bool> g_enabled{false};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSpan:
      return "span";
    case Kind::kCounter:
      return "counter";
  }
  return "?";
}

#ifndef MCHARGE_NO_OBS
/// Registry of every site ever created. Sites are heap-allocated and
/// intentionally leaked: worker threads may still be flushing a span
/// while static destructors run, so the accumulators must outlive main.
struct Registry {
  std::mutex mu;
  std::vector<Site*> sites;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}
#endif

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

bool set_enabled(bool on) {
  return g_enabled.exchange(on, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

#ifndef MCHARGE_NO_OBS

Site& site(const char* name, Kind kind) {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  // Two call sites may share a metric name; they aggregate into one site.
  for (Site* s : reg.sites) {
    if (std::string_view(s->name) == name) return *s;
  }
  Site* s = new Site{name, kind, {}, {}, {}};
  reg.sites.push_back(s);
  return *s;
}

TraceReport capture() {
  TraceReport report;
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  report.metrics.reserve(reg.sites.size());
  for (const Site* s : reg.sites) {
    MetricSnapshot m;
    m.name = s->name;
    m.kind = s->kind;
    m.count = s->count.load(std::memory_order_relaxed);
    m.total_s =
        static_cast<double>(s->total_ns.load(std::memory_order_relaxed)) *
        1e-9;
    m.value = s->value.load(std::memory_order_relaxed);
    report.metrics.push_back(std::move(m));
  }
  std::sort(report.metrics.begin(), report.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return report;
}

void reset() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (Site* s : reg.sites) {
    s->count.store(0, std::memory_order_relaxed);
    s->total_ns.store(0, std::memory_order_relaxed);
    s->value.store(0, std::memory_order_relaxed);
  }
}

#else  // MCHARGE_NO_OBS

TraceReport capture() { return {}; }
void reset() {}

#endif  // MCHARGE_NO_OBS

std::string TraceReport::to_json() const {
  std::string out = "{\n  \"schema\": \"mcharge.trace.v1\",\n  \"metrics\": [";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSnapshot& m = metrics[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    append_json_escaped(out, m.name);
    out += "\", \"kind\": \"";
    out += kind_name(m.kind);
    out += "\"";
    std::snprintf(buf, sizeof(buf), ", \"count\": %" PRIu64, m.count);
    out += buf;
    if (m.kind == Kind::kSpan) {
      std::snprintf(buf, sizeof(buf), ", \"total_s\": %.9f", m.total_s);
      out += buf;
    } else {
      std::snprintf(buf, sizeof(buf), ", \"value\": %" PRId64, m.value);
      out += buf;
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool write_trace_json(const std::string& path) {
  const std::string json = capture().to_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace mcharge::obs
