// Tiny command-line flag parser for the bench and example binaries.
//
// Supports `--name=value` and boolean `--name` (always "true"; a bare
// flag never takes the next argument as its value, so positionals after
// it stay positionals). Unknown flags are collected so binaries can
// reject typos explicitly.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ntom {

/// A flag value that does not parse as the type its accessor asks for.
/// The message names the flag.
class flag_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parsed command-line flags with typed, defaulted accessors.
class flags {
 public:
  flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Throws flag_error unless the whole value is a decimal integer.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Throws flag_error unless the whole value is a number.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Names seen on the command line (for unknown-flag checks).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ntom
