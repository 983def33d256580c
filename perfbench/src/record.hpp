// The benchmark runner's output record: one flat JSON object of named
// strings, numbers and number arrays, plus the accuracy rows the traced
// and untraced runs must agree on. Numbers are written with 17
// significant digits so doubles round-trip exactly.
#pragma once

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ntom/util/json.hpp"

namespace perfbench {

class record {
 public:
  struct row {
    std::string run;
    std::string series;
    std::string metric;
    double value;
  };
  using rows = std::vector<row>;

  void text(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, ntom::json_quote(value));
  }
  void texts(const std::string& key, const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      out += ntom::json_quote(values[i]);
    }
    fields_.emplace_back(key, out + "]");
  }
  void number(const std::string& key, double value) {
    fields_.emplace_back(key, format(value));
  }
  void numbers(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += format(values[i]);
    }
    fields_.emplace_back(key, out + "]");
  }
  void accuracy(const rows& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      const row& r = values[i];
      if (i > 0) out += ",\n  ";
      out += "[" + ntom::json_quote(r.run) + ", " +
             ntom::json_quote(r.series) + ", " + ntom::json_quote(r.metric) +
             ", " + format(r.value) + "]";
    }
    fields_.emplace_back("accuracy", out + "]");
  }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fputs("{", f);
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(f, "%s\n \"%s\": %s", i > 0 ? "," : "",
                   fields_[i].first.c_str(), fields_[i].second.c_str());
    }
    std::fputs("\n}\n", f);
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  static std::string format(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
