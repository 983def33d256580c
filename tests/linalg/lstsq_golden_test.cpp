// Golden exactness pins for the Householder QR and the least-squares
// solve, plus the sparse == dense contract of solve_least_squares.
//
// The systems are built from closed-form integer patterns (no RNG, no
// libm), and every expectation is an exact bit pattern: the
// factorization may be restructured for speed, but R, the pivot order,
// the rank, Q, Q^T b and the solution must not move by one ulp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "../support/golden_digest.hpp"
#include "ntom/linalg/qr.hpp"
#include "ntom/linalg/solve.hpp"
#include "ntom/linalg/sparse.hpp"

namespace ntom {
namespace {

using test_support::golden_digest;

/// Weighted 0/1 rows, shaped like the Eq. 1 systems: row r has ones at
/// columns c with (r * 7 + c * 3) % 5 < 2 and weight 1 + (r % 3) / 4.
/// With `dup_col`, column cols-1 repeats column 0 (rank deficiency).
sparse_matrix pattern_system(std::size_t rows, std::size_t cols,
                             bool dup_col) {
  sparse_matrix a(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::size_t> idx;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t src = dup_col && c + 1 == cols ? 0 : c;
      if ((r * 7 + src * 3) % 5 < 2) idx.push_back(c);
    }
    a.append_row(idx, 1.0 + static_cast<double>(r % 3) / 4.0);
  }
  return a;
}

std::vector<double> pattern_rhs(std::size_t rows) {
  std::vector<double> b(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    b[r] = -static_cast<double>((r * 5) % 11 + 1) / 16.0;
  }
  return b;
}

/// Byte-wise equality: unlike operator==, tells -0.0 from 0.0.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_qr_pinned(std::size_t rows, std::size_t cols, std::uint64_t want_q,
                      std::uint64_t want_r) {
  const qr_decomposition f =
      qr_factorize(pattern_system(rows, cols, /*dup_col=*/true).to_dense());
  golden_digest q, r;
  q.add(f.q);
  r.add(f.r);
  EXPECT_EQ(q.value(), want_q);
  EXPECT_EQ(r.value(), want_r);
}

void expect_overloads_agree(std::size_t rows, std::size_t cols, bool dup_col) {
  SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) +
               (dup_col ? " dup" : ""));
  const sparse_matrix a = pattern_system(rows, cols, dup_col);
  const std::vector<double> b = pattern_rhs(rows);
  const lstsq_result sparse = solve_least_squares(a, b);
  const lstsq_result dense = solve_least_squares(a.to_dense(), b);
  EXPECT_TRUE(same_bits(sparse.x, dense.x));
  EXPECT_EQ(sparse.rank, dense.rank);
  EXPECT_TRUE(same_bits({sparse.residual_norm}, {dense.residual_norm}));
  EXPECT_EQ(sparse.identifiable, dense.identifiable);
}

TEST(LstsqGoldenTest, WeightedCsrSystemIsPinned) {
  const sparse_matrix a = pattern_system(12, 7, /*dup_col=*/true);
  const std::vector<double> b = pattern_rhs(a.rows());

  const lstsq_result sol = solve_least_squares(a, b);
  golden_digest x;
  x.add(sol.x);
  EXPECT_EQ(sol.rank, 5u);
  EXPECT_EQ(x.value(), 0x35ee6988c967a8f5ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sol.residual_norm),
            0x3fe4f024fdce6162ull);
  EXPECT_EQ(sol.identifiable.to_indices(),
            (std::vector<std::size_t>{1, 2, 3, 4}));

  std::vector<double> c = b;
  const qr_decomposition f = qr_factorize_apply(a.to_dense(), c);
  golden_digest r, qtb;
  r.add(f.r);
  qtb.add(c);
  EXPECT_EQ(f.perm, (std::vector<std::size_t>{2, 3, 4, 1, 0, 5, 6}));
  EXPECT_EQ(f.rank, sol.rank);
  EXPECT_EQ(r.value(), 0x6e12e0fd61959a9dull);
  EXPECT_EQ(qtb.value(), 0x4927a8d53ca68d67ull);
}

TEST(LstsqGoldenTest, ExplicitQIsPinned) {
  expect_qr_pinned(9, 5, 0xb173f00d8df1d695ull, 0x8cc6e4d4ed1e778aull);
  expect_qr_pinned(4, 7, 0xc9f61784bfd0abd3ull, 0xb5c27f30646e3d08ull);
}

TEST(LstsqGoldenTest, SparseAndDenseOverloadsAgreeByteForByte) {
  expect_overloads_agree(40, 9, false);  // tall, full rank
  expect_overloads_agree(40, 9, true);   // tall, rank-deficient
  expect_overloads_agree(5, 12, false);  // wide
  expect_overloads_agree(6, 6, true);    // square, rank-deficient
  expect_overloads_agree(1, 4, false);   // a single equation
  expect_overloads_agree(0, 5, false);   // no equations
  expect_overloads_agree(3, 0, false);   // no unknowns
}

}  // namespace
}  // namespace ntom
