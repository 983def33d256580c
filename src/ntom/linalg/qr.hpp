// Householder QR factorization with column pivoting.
//
// This single factorization powers everything the tomography core needs:
// numerical rank, an orthonormal null-space basis (the N matrix of
// Algorithm 1), and least-squares / minimum-norm solves of the log-domain
// equation systems.
//
// The factorization runs in one column-major m x n workspace, filled
// from either a dense matrix or the CSR rows the equation builders emit
// (no row-major dense image is staged for sparse input). Each reflector
// is applied to four columns per pass with one accumulator per column
// in ascending row order, and the build never contracts a*b+c into an
// FMA (ISO C++ mode), so R, the pivot order, the rank and Q^T b are the
// same bits whichever overload fed the workspace.
#pragma once

#include <cstddef>
#include <vector>

#include "ntom/linalg/matrix.hpp"
#include "ntom/linalg/sparse.hpp"

namespace ntom {

/// Result of a column-pivoted Householder QR of an m x n matrix A:
/// A * P = Q * R with Q (m x m) orthogonal, R (m x n) upper triangular,
/// and P a column permutation that moves the largest remaining column
/// first at each step (rank-revealing).
struct qr_decomposition {
  matrix q;                      ///< m x m orthogonal factor.
  matrix r;                      ///< m x n upper-triangular factor.
  std::vector<std::size_t> perm; ///< perm[j] = original column of pivoted col j.
  std::size_t rank = 0;          ///< numerical rank at the given tolerance.
  double tolerance = 0.0;        ///< absolute diagonal threshold used.
};

/// Factorizes A. `rel_tol` scales the rank threshold relative to the
/// largest diagonal of R (default suits well-scaled 0/1 systems).
[[nodiscard]] qr_decomposition qr_factorize(const matrix& a,
                                            double rel_tol = 1e-10);

/// Factorizes A without accumulating the explicit Q (the returned `q`
/// is 0 x 0) and instead applies the transposed reflector sequence to
/// `rhs` in place: rhs <- Q^T rhs. R, perm, rank, and tolerance are
/// bit-identical to qr_factorize's. The least-squares solve needs Q
/// only through Q^T b, and for the tall systems the tomography
/// estimators stage (up to ~10^4 equations over a few hundred unknowns)
/// the explicit m x m factor dominates both the arithmetic and the
/// memory of the whole solve — this path is O(m n) space instead of
/// O(m^2). `rhs.size()` must equal `a.rows()`.
[[nodiscard]] qr_decomposition qr_factorize_apply(const matrix& a,
                                                  std::vector<double>& rhs,
                                                  double rel_tol = 1e-10);

/// Same factorization with the CSR rows scattered straight into the
/// workspace; bit-identical to the dense overload on a.to_dense().
[[nodiscard]] qr_decomposition qr_factorize_apply(const sparse_matrix& a,
                                                  std::vector<double>& rhs,
                                                  double rel_tol = 1e-10);

/// Numerical rank of A (shorthand for qr_factorize(a).rank).
[[nodiscard]] std::size_t matrix_rank(const matrix& a, double rel_tol = 1e-10);

/// Orthonormal basis of the null space of A, returned as an n x k matrix
/// whose columns satisfy A * col ~ 0. k = n - rank(A); k == 0 yields an
/// n x 0 matrix.
[[nodiscard]] matrix null_space_basis(const matrix& a, double rel_tol = 1e-10);

/// CSR counterpart; bit-identical to null_space_basis(a.to_dense()).
[[nodiscard]] matrix null_space_basis(const sparse_matrix& a,
                                      double rel_tol = 1e-10);

/// Same basis from an existing factorization of A (only R, perm, and
/// rank are read — a Q-free factorization works). Lets one
/// factorization feed both the minimum-norm solve and the
/// identifiability analysis instead of factorizing twice.
[[nodiscard]] matrix null_space_basis(const qr_decomposition& f);

}  // namespace ntom
