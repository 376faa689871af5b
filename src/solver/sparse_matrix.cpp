#include "solver/sparse_matrix.h"

#include "common/check.h"

namespace oef::solver {

void SparseMatrix::reset(std::size_t rows) {
  rows_ = rows;
  columns_.clear();
}

std::size_t SparseMatrix::nonzeros() const {
  std::size_t total = 0;
  for (const auto& column : columns_) total += column.size();
  return total;
}

std::size_t SparseMatrix::add_column() {
  columns_.emplace_back();
  return columns_.size() - 1;
}

void SparseMatrix::add_entry(std::size_t col, std::size_t row, double value) {
  OEF_CHECK(col < columns_.size());
  OEF_CHECK(row < rows_);
  if (value == 0.0) return;
  columns_[col].push_back({row, value});
}

void SparseMatrix::set_rows(std::size_t rows) {
  OEF_CHECK(rows >= rows_);
  rows_ = rows;
}

double SparseMatrix::dot_column(std::size_t col, const std::vector<double>& x) const {
  double acc = 0.0;
  for (const SparseEntry& entry : columns_[col]) acc += entry.value * x[entry.row];
  return acc;
}

void SparseMatrix::axpy_column(std::size_t col, double factor,
                               std::vector<double>& out) const {
  if (factor == 0.0) return;
  for (const SparseEntry& entry : columns_[col]) out[entry.row] += factor * entry.value;
}

}  // namespace oef::solver
