// Sparse constraint matrix for the revised simplex, stored twice: by column
// and by row.
//
// The LP constraint matrices in this repository are sparse both ways: an
// envy row touches 2k structural columns out of O(n·k), and every slack
// column is a single unit entry. The column copy (CSC-style, one entry vector
// per column) serves the passes that walk one column at a time: ftran of the
// entering column, refactorisation, single-column dot products. The row-major
// mirror serves the passes that multiply a vector into all of A — reduced
// costs yᵀA, the dual pivot row ρᵀA and the devex updates: in
// add_transpose_product only the rows where the vector is nonzero contribute,
// so a pass costs the nonzeros of those rows rather than all of A (y and ρ
// are typically a small fraction nonzero). Columns and rows are both
// appendable, which is what the incremental-resolve path needs: add_rows()
// appends one constraint row (touching only its nonzero columns) plus one
// fresh slack column.
//
// This structure covers the constraint matrix A only; the basis B is held
// as a sparse LU factorisation plus eta file (basis.h).
#pragma once

#include <cstddef>
#include <vector>

namespace oef::solver {

/// One nonzero of a sparse column: A[row, col] = value.
struct SparseEntry {
  std::size_t row = 0;
  double value = 0.0;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Resets to an empty rows x 0 matrix.
  void reset(std::size_t rows);

  [[nodiscard]] std::size_t rows() const { return row_entries_.size(); }
  [[nodiscard]] std::size_t cols() const { return columns_.size(); }

  /// Total stored nonzeros.
  [[nodiscard]] std::size_t nonzeros() const;

  /// Appends an empty column and returns its index.
  std::size_t add_column();

  /// Appends one nonzero to column `col` (and to row `row` of the mirror).
  /// Zero values are skipped. Entries within a column are kept in insertion
  /// order; the solver only appends strictly increasing row indices, so
  /// columns stay row-sorted.
  void add_entry(std::size_t col, std::size_t row, double value);

  /// Grows the row dimension (new rows start empty).
  void set_rows(std::size_t rows);

  [[nodiscard]] const std::vector<SparseEntry>& column(std::size_t col) const {
    return columns_[col];
  }

  /// Dot product of column `col` with a dense vector of size rows().
  [[nodiscard]] double dot_column(std::size_t col, const std::vector<double>& x) const;

  /// out += factor * column(col) for a dense vector of size rows().
  void axpy_column(std::size_t col, double factor, std::vector<double>& out) const;

  /// out[j] += factor * (vᵀA_j) for every column j whose product is nonzero,
  /// over the row mirror: only rows with v[i] != 0 are visited, in ascending
  /// row order. Each vᵀA_j is bit-identical to dot_column(j, v) for
  /// row-sorted columns — the same terms are summed in the same order, and a
  /// skipped ±0 term cannot change a sum that starts at +0.
  void add_transpose_product(const std::vector<double>& v, double factor,
                             std::vector<double>& out) const;

 private:
  /// One nonzero of the row mirror: A[row, col] = value.
  struct RowEntry {
    std::size_t col = 0;
    double value = 0.0;
  };

  std::vector<std::vector<SparseEntry>> columns_;
  std::vector<std::vector<RowEntry>> row_entries_;
};

}  // namespace oef::solver
