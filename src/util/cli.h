// Minimal --key=value command-line parsing for bench and example binaries.
#pragma once

#include <cstddef>
#include <map>
#include <string>

namespace mcharge {

/// Parses flags of the form --key=value (or bare --key, value "true").
/// Arguments that do not start with "--" are ignored.
///
/// The numeric getters must consume the whole value: a malformed number
/// (`--instances=1O0`, `--jobs=abc`, a negative count for get_size, or a
/// zero for get_count) prints the flag and its value to stderr and exits
/// with status 2.
class CliFlags {
 public:
  CliFlags(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  /// Non-negative integer (counts, sizes, job numbers).
  std::size_t get_size(const std::string& key, std::size_t fallback) const;
  /// Positive integer, for counts where zero is meaningless (chargers,
  /// instances, rounds).
  std::size_t get_count(const std::string& key, std::size_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& flags() const { return flags_; }

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace mcharge
