// Sparse row-major (CSR) matrix for the tomographic equation systems.
//
// Eq. 1 rows are 0/1 indicators over the subset catalog scaled by a
// per-equation weight, so a row is fully described by its ascending
// column indices plus one value. Assembling systems in this form keeps
// equation building O(nnz) per row instead of O(catalog.size()), and
// the QR factorization scatters the rows straight into its
// column-major workspace: no row-major dense image is ever built.
#pragma once

#include <cstddef>
#include <vector>

#include "ntom/linalg/matrix.hpp"

namespace ntom {

/// Compressed-sparse-row matrix of doubles. Rows are append-only.
class sparse_matrix {
 public:
  sparse_matrix() = default;

  /// Fixes the column count up front (rows may leave columns unused).
  explicit sparse_matrix(std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept {
    return row_start_.size() - 1;
  }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows() == 0 || cols_ == 0; }

  /// Stored entries (including explicit zeros, if any were appended).
  [[nodiscard]] std::size_t nnz() const noexcept { return col_.size(); }

  /// Appends a row whose entries at `indices` (ascending, < cols()) all
  /// share `value` — the shape of a weighted 0/1 equation row.
  void append_row(const std::vector<std::size_t>& indices, double value = 1.0);

  /// Appends a general row from parallel index/value arrays.
  void append_row(const std::vector<std::size_t>& indices,
                  const std::vector<double>& values);

  /// Read-only view of one row's entries.
  struct row_view {
    const std::size_t* index;
    const double* value;
    std::size_t nnz;
  };
  [[nodiscard]] row_view row(std::size_t r) const noexcept;

  /// this * x. x.size() must equal cols().
  [[nodiscard]] std::vector<double> multiply(
      const std::vector<double>& x) const;

  /// this^T * y. y.size() must equal rows().
  [[nodiscard]] std::vector<double> transpose_multiply(
      const std::vector<double>& y) const;

  /// Dense image (rows() x cols()), for tests and benches that compare
  /// the sparse and dense entry points; the solvers never build it.
  [[nodiscard]] matrix to_dense() const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_start_{0};  ///< size rows()+1.
  std::vector<std::size_t> col_;
  std::vector<double> val_;
};

}  // namespace ntom
