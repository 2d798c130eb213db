// Minimal --key=value command-line parsing for bench and example binaries.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>

namespace mcharge {

/// Parses flags of the form --key=value (or bare --key, value "true").
/// Arguments that do not start with "--" are ignored.
///
/// The numeric getters must consume the whole value: a malformed number
/// (`--instances=1O0`, `--jobs=abc`, a negative count for get_size, or a
/// zero for get_count) prints the flag and its value to stderr and exits
/// with status 2, and so does an on/off value get_bool does not know.
///
/// Every getter and has() records the key it was asked for. A binary
/// calls reject_unknown() once, after it has asked for all of its flags,
/// so that a misspelt flag fails instead of silently leaving a default.
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
  /// On/off switch: bare, "true", "1" or "yes" is on; "false", "0" or
  /// "no" is off; any other value is rejected like a malformed number.
  bool get_bool(const std::string& key, bool fallback) const;

  /// Prints `error: unknown flag --<key>` and exits with status 2 if a
  /// flag was given that no getter or has() has asked for.
  void reject_unknown() const;

 private:
  /// The value of `key`, or nullptr; records that `key` was asked for.
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> asked_;
};

}  // namespace mcharge
