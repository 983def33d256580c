// Flags shared by the command-line front ends (sweep_cli, ntom_cli),
// parsed in one place so both binaries accept the same spellings and
// report the same errors.
#pragma once

#include <string_view>
#include <vector>

#include "ntom/part/partition.hpp"
#include "ntom/util/flags.hpp"

namespace ntom {

/// `--simd=scalar|popcnt|avx2|avx512`: forces the bit-kernel dispatch
/// level for the whole process (same semantics as NTOM_SIMD). Asking
/// above the hardware warns on stderr and keeps detection. Returns
/// false, after printing the error, on an unknown level.
[[nodiscard]] bool apply_simd_flag(const flags& opts);

/// `--partition=none|components|bicomp|auto` and
/// `--partition-max-links=N` as one partition_options. Throws
/// spec_error on an unknown mode.
[[nodiscard]] partition_options partition_flags(const flags& opts);

/// Rejects flags outside `known`: prints the first unknown name to
/// stderr and returns false, so a typo'd or retired flag fails instead
/// of being silently ignored.
[[nodiscard]] bool reject_unknown_flags(
    const flags& opts, const std::vector<std::string_view>& known);

}  // namespace ntom
