#include "ntom/api/cli_common.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "ntom/util/simd/simd.hpp"

namespace ntom {

bool apply_simd_flag(const flags& opts) {
  if (!opts.has("simd")) return true;
  const std::string name = opts.get_string("simd", "");
  simd::level want{};
  if (!simd::parse_level(name, want)) {
    std::fprintf(stderr,
                 "--simd=%s: unknown level (scalar|popcnt|avx2|avx512)\n",
                 name.c_str());
    return false;
  }
  if (!simd::set_level(want)) {
    std::fprintf(stderr, "--simd=%s exceeds this host; staying at %s\n",
                 name.c_str(), simd::level_name(simd::active_level()));
  }
  return true;
}

partition_options partition_flags(const flags& opts) {
  partition_options part;
  part.mode = partition_mode_from_string(opts.get_string("partition", "none"));
  part.max_cell_links = static_cast<std::size_t>(
      opts.get_int("partition-max-links",
                   static_cast<std::int64_t>(part.max_cell_links)));
  return part;
}

bool reject_unknown_flags(const flags& opts,
                          const std::vector<std::string_view>& known) {
  for (const std::string& name : opts.names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace ntom
