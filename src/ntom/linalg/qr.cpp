#include "ntom/linalg/qr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ntom {

namespace {

/// Column-major m x n image of A, the factorization's only workspace:
/// column j occupies [j*m, j*m + m), so every Householder dot product
/// and update walks contiguous memory.
struct column_major {
  std::size_t m = 0;
  std::size_t n = 0;
  std::vector<double> data;

  column_major(std::size_t rows, std::size_t cols)
      : m(rows), n(cols), data(rows * cols, 0.0) {}
  double* col(std::size_t j) noexcept { return data.data() + j * m; }
};

column_major from_dense(const matrix& a) {
  column_major w(a.rows(), a.cols());
  for (std::size_t i = 0; i < w.m; ++i) {
    const double* row = a.row_ptr(i);
    for (std::size_t j = 0; j < w.n; ++j) w.data[j * w.m + i] = row[j];
  }
  return w;
}

/// Scatters the CSR rows straight into the workspace (assignment, as
/// sparse_matrix::to_dense does) — no row-major dense image exists.
column_major from_sparse(const sparse_matrix& a) {
  column_major w(a.rows(), a.cols());
  for (std::size_t i = 0; i < w.m; ++i) {
    const sparse_matrix::row_view row = a.row(i);
    for (std::size_t k = 0; k < row.nnz; ++k) {
      w.data[row.index[k] * w.m + i] = row.value[k];
    }
  }
  return w;
}

/// Applies H = I - 2 v v^T / (v^T v) to the W columns starting at
/// `first`, rows [k, m), where v = w.col(k)[k..m). The W columns share
/// each pass over v, and every column keeps its own accumulator summed
/// in ascending row order, so each result is the same sequence of IEEE
/// operations as a one-column-at-a-time loop; the W independent sums
/// keep the floating-point adders busy instead of waiting on one chain.
template <std::size_t W>
void apply_reflector(column_major& w, std::size_t k, std::size_t first,
                     double vnorm2) {
  const std::size_t m = w.m;
  const double* v = w.col(k);
  double* c[W];
  double s[W];
  for (std::size_t q = 0; q < W; ++q) {
    c[q] = w.col(first + q);
    s[q] = 0.0;
  }
  for (std::size_t i = k; i < m; ++i) {
    for (std::size_t q = 0; q < W; ++q) s[q] += v[i] * c[q][i];
  }
  for (std::size_t q = 0; q < W; ++q) s[q] = 2.0 * s[q] / vnorm2;
  for (std::size_t i = k; i < m; ++i) {
    for (std::size_t q = 0; q < W; ++q) c[q][i] -= s[q] * v[i];
  }
}

/// Core column-pivoted Householder loop over the column-major
/// workspace. Writes R, perm, rank, and tolerance into `out`. The
/// explicit Q is accumulated only when `want_q` is set; when `rhs` is
/// non-null the transposed reflector sequence is applied to it in place
/// (rhs <- Q^T rhs). Both consumers see bit-identical R/perm/rank — the
/// reflector arithmetic on R does not depend on what Q is used for.
void factorize_core(column_major w, double rel_tol, bool want_q,
                    std::vector<double>* rhs, qr_decomposition& out) {
  const std::size_t m = w.m;
  const std::size_t n = w.n;
  if (want_q) out.q = matrix::identity(m);
  out.perm.resize(n);
  for (std::size_t j = 0; j < n; ++j) out.perm[j] = j;

  // Squared column norms of the trailing submatrix, used for pivoting.
  std::vector<double> col_norm2(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double* c = w.col(j);
    for (std::size_t i = 0; i < m; ++i) col_norm2[j] += c[i] * c[i];
  }

  const std::size_t steps = std::min(m, n);
  for (std::size_t k = 0; k < steps; ++k) {
    // Pivot: bring the largest remaining column to position k.
    std::size_t pivot = k;
    for (std::size_t j = k + 1; j < n; ++j) {
      if (col_norm2[j] > col_norm2[pivot]) pivot = j;
    }
    if (pivot != k) {
      std::swap_ranges(w.col(k), w.col(k) + m, w.col(pivot));
      std::swap(col_norm2[k], col_norm2[pivot]);
      std::swap(out.perm[k], out.perm[pivot]);
    }

    // Householder vector for column k below the diagonal, formed in
    // place: v = (r_kk - alpha, r_{k+1,k}, ..., r_{m-1,k}).
    double* v = w.col(k);
    double norm_x = 0.0;
    for (std::size_t i = k; i < m; ++i) norm_x += v[i] * v[i];
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) continue;

    const double r_kk = v[k];
    const double alpha = r_kk >= 0.0 ? -norm_x : norm_x;
    v[k] = r_kk - alpha;
    double vnorm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) vnorm2 += v[i] * v[i];
    if (vnorm2 == 0.0) {
      v[k] = r_kk;
      continue;
    }

    // Apply H to the trailing columns of R, four at a time ...
    std::size_t j = k + 1;
    for (; j + 4 <= n; j += 4) apply_reflector<4>(w, k, j, vnorm2);
    for (; j < n; ++j) apply_reflector<1>(w, k, j, vnorm2);
    // ... accumulate into Q (Q <- Q H, acting on columns k..m of Q;
    // row-major, so each row's dot with v is contiguous) ...
    if (want_q) {
      for (std::size_t i = 0; i < m; ++i) {
        double* q = out.q.row_ptr(i);
        double s = 0.0;
        for (std::size_t j = k; j < m; ++j) s += q[j] * v[j];
        s = 2.0 * s / vnorm2;
        for (std::size_t j = k; j < m; ++j) q[j] -= s * v[j];
      }
    }
    // ... and to the right-hand side (rhs <- H rhs, so the finished
    // vector is H_s ... H_1 rhs = Q^T rhs).
    if (rhs != nullptr) {
      double* b = rhs->data();
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i] * b[i];
      s = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) b[i] -= s * v[i];
    }

    // Exact zeros below the diagonal and updated trailing norms.
    v[k] = alpha;
    std::fill(v + k + 1, v + m, 0.0);
    for (std::size_t j = k + 1; j < n; ++j) {
      const double r_kj = w.col(j)[k];
      col_norm2[j] -= r_kj * r_kj;
      if (col_norm2[j] < 0.0) col_norm2[j] = 0.0;
    }
  }

  out.r = matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    double* row = out.r.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) row[j] = w.data[j * m + i];
  }

  double max_diag = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    max_diag = std::max(max_diag, std::abs(out.r(k, k)));
  }
  out.tolerance = rel_tol * std::max(max_diag, 1.0);
  out.rank = 0;
  for (std::size_t k = 0; k < steps; ++k) {
    if (std::abs(out.r(k, k)) > out.tolerance) ++out.rank;
  }
}

}  // namespace

qr_decomposition qr_factorize(const matrix& a, double rel_tol) {
  qr_decomposition out;
  factorize_core(from_dense(a), rel_tol, /*want_q=*/true, nullptr, out);
  return out;
}

qr_decomposition qr_factorize_apply(const matrix& a, std::vector<double>& rhs,
                                    double rel_tol) {
  assert(rhs.size() == a.rows());
  qr_decomposition out;
  factorize_core(from_dense(a), rel_tol, /*want_q=*/false, &rhs, out);
  return out;
}

qr_decomposition qr_factorize_apply(const sparse_matrix& a,
                                    std::vector<double>& rhs, double rel_tol) {
  assert(rhs.size() == a.rows());
  qr_decomposition out;
  factorize_core(from_sparse(a), rel_tol, /*want_q=*/false, &rhs, out);
  return out;
}

std::size_t matrix_rank(const matrix& a, double rel_tol) {
  if (a.empty()) return 0;
  qr_decomposition f;
  factorize_core(from_dense(a), rel_tol, /*want_q=*/false, nullptr, f);
  return f.rank;
}

matrix null_space_basis(const qr_decomposition& f) {
  const std::size_t n = f.r.cols();
  const std::size_t r = f.rank;
  const std::size_t k = n - r;
  matrix basis(n, k);
  if (k == 0) return basis;

  // The basis vectors are built and orthonormalized as contiguous
  // columns (column j at cols[j*n, j*n + n)), then stored into the
  // row-major n x k result.
  std::vector<double> cols(k * n, 0.0);
  std::vector<double> y(n);

  // For each free column j (pivoted index r+j), back-substitute
  // R11 * y1 = -R12[:, j] and scatter through the permutation.
  for (std::size_t j = 0; j < k; ++j) {
    std::fill(y.begin(), y.end(), 0.0);
    y[r + j] = 1.0;
    for (std::size_t i = r; i-- > 0;) {
      const double* row = f.r.row_ptr(i);
      double s = row[r + j];
      for (std::size_t c = i + 1; c < r; ++c) s += row[c] * y[c];
      y[i] = -s / row[i];
    }
    double* col = cols.data() + j * n;
    for (std::size_t c = 0; c < n; ++c) col[f.perm[c]] = y[c];
  }

  // Modified Gram-Schmidt for a well-conditioned basis.
  for (std::size_t j = 0; j < k; ++j) {
    double* col = cols.data() + j * n;
    for (std::size_t prev = 0; prev < j; ++prev) {
      const double* q = cols.data() + prev * n;
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) proj += col[i] * q[i];
      for (std::size_t i = 0; i < n; ++i) col[i] -= proj * q[i];
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm += col[i] * col[i];
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (std::size_t i = 0; i < n; ++i) col[i] /= norm;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    double* row = basis.row_ptr(i);
    for (std::size_t j = 0; j < k; ++j) row[j] = cols[j * n + i];
  }
  return basis;
}

matrix null_space_basis(const matrix& a, double rel_tol) {
  const std::size_t n = a.cols();
  if (a.rows() == 0) return matrix::identity(n);
  qr_decomposition f;
  factorize_core(from_dense(a), rel_tol, /*want_q=*/false, nullptr, f);
  return null_space_basis(f);
}

matrix null_space_basis(const sparse_matrix& a, double rel_tol) {
  const std::size_t n = a.cols();
  if (a.rows() == 0) return matrix::identity(n);
  qr_decomposition f;
  factorize_core(from_sparse(a), rel_tol, /*want_q=*/false, nullptr, f);
  return null_space_basis(f);
}

}  // namespace ntom
