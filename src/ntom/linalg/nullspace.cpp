#include "ntom/linalg/nullspace.hpp"

#include <cassert>
#include <cmath>

namespace ntom {

namespace {

/// r . N per column, r given densely.
std::vector<double> column_products(const std::vector<double>& r,
                                    const matrix& n) {
  assert(r.size() == n.rows());
  std::vector<double> rn(n.cols(), 0.0);
  for (std::size_t j = 0; j < n.cols(); ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < n.rows(); ++i) s += r[i] * n(i, j);
    rn[j] = s;
  }
  return rn;
}

/// r . N per column for a 0/1 row with ones at `row_indices`: each
/// product is a sum of nnz entries of N instead of a length-n dot.
std::vector<double> column_products(const std::vector<std::size_t>& row_indices,
                                    const matrix& n) {
  std::vector<double> rn(n.cols(), 0.0);
  for (const std::size_t i : row_indices) {
    assert(i < n.rows());
    const double* row = n.row_ptr(i);
    for (std::size_t j = 0; j < n.cols(); ++j) rn[j] += row[j];
  }
  return rn;
}

double max_abs_of(const std::vector<double>& xs) noexcept {
  double best = 0.0;
  for (const double x : xs) best = std::max(best, std::abs(x));
  return best;
}

matrix apply_null_space_update(matrix n, std::vector<double> rn, double tol);

}  // namespace

double row_nullspace_product(const std::vector<double>& r,
                             const matrix& n) {
  return max_abs_of(column_products(r, n));
}

double row_nullspace_product(const std::vector<std::size_t>& row_indices,
                             const matrix& n) {
  return max_abs_of(column_products(row_indices, n));
}

bool row_increases_rank(const std::vector<double>& r, const matrix& n,
                        double tol) {
  if (n.cols() == 0) return false;
  return row_nullspace_product(r, n) > tol;
}

bool row_increases_rank(const std::vector<std::size_t>& row_indices,
                        const matrix& n, double tol) {
  // Same per-column sums as column_products (one accumulator per
  // column, rows added in `row_indices` order), four columns per pass
  // and no allocation; stops at the first column past the tolerance.
  const std::size_t p = n.cols();
  std::size_t j = 0;
  for (; j + 4 <= p; j += 4) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (const std::size_t i : row_indices) {
      const double* row = n.row_ptr(i) + j;
      s0 += row[0];
      s1 += row[1];
      s2 += row[2];
      s3 += row[3];
    }
    if (std::abs(s0) > tol || std::abs(s1) > tol || std::abs(s2) > tol ||
        std::abs(s3) > tol) {
      return true;
    }
  }
  for (; j < p; ++j) {
    double s = 0.0;
    for (const std::size_t i : row_indices) s += n(i, j);
    if (std::abs(s) > tol) return true;
  }
  return false;
}

matrix null_space_update(matrix n, const std::vector<double>& r, double tol) {
  assert(r.size() == n.rows());
  return apply_null_space_update(std::move(n), column_products(r, n), tol);
}

matrix null_space_update(matrix n, const std::vector<std::size_t>& row_indices,
                         double tol) {
  return apply_null_space_update(std::move(n),
                                 column_products(row_indices, n), tol);
}

namespace {

matrix apply_null_space_update(matrix n, std::vector<double> rn, double tol) {
  const std::size_t rows = n.rows();
  const std::size_t p = n.cols();
  if (p == 0) return n;

  std::size_t pivot = 0;
  for (std::size_t j = 1; j < p; ++j) {
    if (std::abs(rn[j]) > std::abs(rn[pivot])) pivot = j;
  }
  if (std::abs(rn[pivot]) <= tol) return n;  // r adds no rank; N unchanged.

  n.swap_columns(0, pivot);
  std::swap(rn[0], rn[pivot]);

  // N' columns: N_j - N_1 * (r.N_j) / (r.N_1), for j = 2..p. Every
  // entry and every per-column norm sees the same operations as a
  // column-by-column loop; walking N row by row keeps the access
  // contiguous.
  matrix updated(rows, p - 1);
  const double inv = 1.0 / rn[0];
  std::vector<double> scale(p);
  for (std::size_t j = 1; j < p; ++j) scale[j] = rn[j] * inv;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* src = n.row_ptr(i);
    double* dst = updated.row_ptr(i);
    for (std::size_t j = 1; j < p; ++j) dst[j - 1] = src[j] - scale[j] * src[0];
  }

  // Re-normalize columns to keep the basis well-scaled across many updates.
  std::vector<double> norm(p - 1, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = updated.row_ptr(i);
    for (std::size_t j = 0; j + 1 < p; ++j) norm[j] += row[j] * row[j];
  }
  for (double& x : norm) x = std::sqrt(x);
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = updated.row_ptr(i);
    for (std::size_t j = 0; j + 1 < p; ++j) {
      if (norm[j] > tol) row[j] /= norm[j];
    }
  }
  return updated;
}

}  // namespace

std::vector<std::size_t> row_hamming_weights(const matrix& n, double tol) {
  std::vector<std::size_t> weights(n.rows(), 0);
  for (std::size_t i = 0; i < n.rows(); ++i) {
    std::size_t w = 0;
    for (std::size_t j = 0; j < n.cols(); ++j) {
      if (std::abs(n(i, j)) > tol) ++w;
    }
    weights[i] = w;
  }
  return weights;
}

bitvec identifiable_coordinates(const matrix& n, double tol) {
  bitvec out(n.rows());
  for (std::size_t i = 0; i < n.rows(); ++i) {
    bool clean = true;
    for (std::size_t j = 0; j < n.cols(); ++j) {
      if (std::abs(n(i, j)) > tol) {
        clean = false;
        break;
      }
    }
    if (clean) out.set(i);
  }
  return out;
}

}  // namespace ntom
