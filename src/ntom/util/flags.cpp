#include "ntom/util/flags.hpp"

#include <cstdlib>

namespace ntom {

namespace {

/// Throws the flag_error of a value that is not a `what`.
[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* what) {
  throw flag_error("--" + name + ": expected " + what + ", written --" +
                   name + "=VALUE (got '" + value + "')");
}

}  // namespace

flags::flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      values_[body] = "true";
    }
  }
}

bool flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') bad_value(name, it->second, "an integer");
  return value;
}

double flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') bad_value(name, it->second, "a number");
  return value;
}

bool flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace ntom
