#include "util/cli.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>

namespace mcharge {

namespace {

/// Reports a flag whose value is not `what` and exits with status 2.
[[noreturn]] void reject(const std::string& key, const std::string& value,
                         const char* what) {
  std::fprintf(stderr, "error: --%s=%s is not %s\n", key.c_str(),
               value.c_str(), what);
  std::exit(2);
}

/// Parses all of `value` as a T, or reports the flag and exits with 2.
template <typename T>
T parse_whole(const std::string& key, const std::string& value,
              const char* what) {
  T out{};
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) reject(key, value, what);
  return out;
}

}  // namespace

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      flags_[std::string(arg)] = "true";
    } else {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

const std::string* CliFlags::find(const std::string& key) const {
  asked_.insert(key);
  const auto it = flags_.find(key);
  return it == flags_.end() ? nullptr : &it->second;
}

bool CliFlags::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::string CliFlags::get(const std::string& key,
                          const std::string& fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : *value;
}

long long CliFlags::get_int(const std::string& key, long long fallback) const {
  const std::string* value = find(key);
  return value == nullptr
             ? fallback
             : parse_whole<long long>(key, *value, "an integer");
}

std::size_t CliFlags::get_size(const std::string& key,
                               std::size_t fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback
                          : parse_whole<std::size_t>(
                                key, *value, "a non-negative integer");
}

std::size_t CliFlags::get_count(const std::string& key,
                                std::size_t fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  const char* const what = "a positive integer";
  const auto count = parse_whole<std::size_t>(key, *value, what);
  if (count == 0) reject(key, *value, what);
  return count;
}

double CliFlags::get_double(const std::string& key, double fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback
                          : parse_whole<double>(key, *value, "a number");
}

bool CliFlags::get_bool(const std::string& key, bool fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  const std::string& v = *value;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  reject(key, v, "one of true, false, 1, 0, yes, no");
}

void CliFlags::reject_unknown() const {
  for (const auto& [key, value] : flags_) {
    if (asked_.count(key) == 0) {
      std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
      std::exit(2);
    }
  }
}

}  // namespace mcharge
