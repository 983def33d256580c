// FNV-1a digest over 64-bit words for golden exactness tests: a stable,
// dependency-free fingerprint of counts, index lists and the exact bit
// patterns of doubles.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "ntom/linalg/matrix.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom::test_support {

class golden_digest {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      value_ ^= (word >> (8 * b)) & 0xffu;
      value_ *= 0x100000001b3ull;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(const std::vector<double>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (const double x : xs) add(x);
  }
  void add(const std::vector<std::size_t>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (const std::size_t x : xs) add(static_cast<std::uint64_t>(x));
  }
  void add(const bitvec& b) {
    add(static_cast<std::uint64_t>(b.size()));
    add(b.to_indices());
  }
  void add(const matrix& m) {
    add(static_cast<std::uint64_t>(m.rows()));
    add(static_cast<std::uint64_t>(m.cols()));
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) add(m(i, j));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0xcbf29ce484222325ull;
};

}  // namespace ntom::test_support
