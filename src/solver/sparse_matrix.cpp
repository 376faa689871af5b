#include "solver/sparse_matrix.h"

#include "common/check.h"

namespace oef::solver {

void SparseMatrix::reset(std::size_t rows) {
  columns_.clear();
  row_entries_.assign(rows, {});
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
  OEF_CHECK(row < row_entries_.size());
  if (value == 0.0) return;
  columns_[col].push_back({row, value});
  row_entries_[row].push_back({col, value});
}

void SparseMatrix::set_rows(std::size_t rows) {
  OEF_CHECK(rows >= row_entries_.size());
  row_entries_.resize(rows);
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

void SparseMatrix::add_transpose_product(const std::vector<double>& v, double factor,
                                         std::vector<double>& out) const {
  OEF_CHECK(v.size() == row_entries_.size());
  OEF_CHECK(out.size() == columns_.size());
  std::vector<double> acc(columns_.size(), 0.0);
  for (std::size_t i = 0; i < row_entries_.size(); ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    for (const RowEntry& entry : row_entries_[i]) acc[entry.col] += entry.value * vi;
  }
  for (std::size_t j = 0; j < acc.size(); ++j) {
    if (acc[j] != 0.0) out[j] += factor * acc[j];
  }
}

}  // namespace oef::solver
