// Simplex basis: the set of basic columns plus a factored representation of
// B maintained across pivots.
//
// The revised simplex in lp_solver.cpp keeps the constraint matrix A fixed
// and represents the current vertex entirely through this object: solves with
// B^-1 (ftran/btran), per-pivot updates, refactorisation to bound numerical
// drift, cheap expansion when a constraint row is appended, and warm row
// deletion — the operations that make warm-started row generation (and
// relaxation compaction) cheap.
//
// The representation is a sparse LU factorisation of B (left-looking
// Gilbert–Peierls elimination with threshold partial pivoting and a static
// Markowitz-style sparsest-row tie-break) plus a product-form eta file, one
// eta per pivot. ftran/btran are sparse triangular + eta solves that skip zero
// intermediates, so the per-pivot cost is O(nnz) rather than O(m^2); appending
// a row is a bordered update (one sparse U^T solve). Refactorisation is
// triggered by eta-file length / fill growth. This is what carries the
// n ~ 1000 cooperative sweep (m ~ 16k envy rows).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "solver/sparse_matrix.h"

namespace oef::solver {

class Basis {
 public:
  /// Number of rows (== number of basic columns).
  [[nodiscard]] std::size_t size() const { return basic_.size(); }

  /// Column index basic in each row position.
  [[nodiscard]] const std::vector<std::size_t>& basic() const { return basic_; }

  /// Installs a basic set and an identity factorisation; valid as-is only
  /// when the basis matrix actually is the identity (the all-slack /
  /// all-artificial start), otherwise call refactor() before any solve.
  /// Clears the eta file.
  void set_basic(std::vector<std::size_t> basic);

  /// Factorises B from scratch against `columns` (the full constraint matrix;
  /// the basic set selects which columns form B). Returns false when the
  /// basis matrix is numerically singular — deficiency() then names the
  /// positions to repair, and the previous representation is unusable.
  [[nodiscard]] bool refactor(const SparseMatrix& columns);

  /// True when the eta file is due for a refactorisation: its length reached
  /// `eta_cap`, or its nonzeros exceed `fill_growth` x (LU nonzeros + m).
  [[nodiscard]] bool refactor_due(std::size_t eta_cap, double fill_growth) const;

  /// w = B^-1 a (a indexed by constraint row, w by basis position).
  [[nodiscard]] std::vector<double> ftran(const std::vector<double>& a) const;

  /// w = B^-1 a for a sparse a (entries of one constraint-matrix column).
  [[nodiscard]] std::vector<double> ftran(const std::vector<SparseEntry>& a) const;

  /// y^T = c_B^T B^-1 (cb indexed by basis position, y by constraint row).
  [[nodiscard]] std::vector<double> btran(const std::vector<double>& cb) const;

  /// Row `pos` of B^-1 (== e_pos^T B^-1), used for the dual-simplex pivot row
  /// and the devex reference updates.
  [[nodiscard]] std::vector<double> btran_unit(std::size_t pos) const;

  /// Applies the pivot (leave_row, enter_col) by appending one eta.
  /// `ftran_col` must be B^-1 A_enter as returned by ftran().
  void pivot(std::size_t leave_row, std::size_t enter_col,
             const std::vector<double>& ftran_col);

  /// Extends the basis for one appended constraint row whose slack column
  /// (index `slack_col`) becomes basic in the new row. `row_basic_coeffs`
  /// holds the new row's coefficient on each current basic column, in
  /// position order. Keeps the representation exact with a bordered L row.
  void append_row(const std::vector<double>& row_basic_coeffs, std::size_t slack_col);

  /// Warm row deletion: removes the basic `positions` (sorted ascending; each
  /// must hold a unit column of one deleted constraint row so B stays
  /// nonsingular — the caller verifies this) and renumbers the surviving
  /// basic columns through `col_remap`. The caller must refactor() against
  /// the reduced matrix before the next solve.
  void delete_rows(const std::vector<std::size_t>& positions,
                   const std::vector<std::size_t>& col_remap);

  /// Pivots since the last refactor() / set_basic() (== eta-file length).
  [[nodiscard]] std::size_t pivots_since_refactor() const { return etas_.size(); }

  /// After a failed refactor(): the (basis position, constraint row) pairs
  /// the factorisation could not pivot. Accumulated update drift can let the
  /// simplex adopt an entering column the true basis does not admit; the
  /// solver repairs such deficiencies by patching each listed position with
  /// a unit column of the listed row and refactorising again, instead of
  /// abandoning the solve.
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>& deficiency() const {
    return deficiency_;
  }

  /// Fault injection: scales the newest eta's pivot element by `factor`,
  /// emulating accumulated update drift. Returns false (no fault) when the
  /// eta file is empty.
  bool corrupt_last_eta(double factor);

 private:
  struct Entry {
    std::size_t idx = 0;
    double value = 0.0;
  };
  /// One product-form update: B_new = B_old * E with column `pos` of E equal
  /// to the pivot's ftran column (stored split into the pivot element and the
  /// off-pivot nonzeros, basis-position indexed).
  struct Eta {
    std::size_t pos = 0;
    double pivot = 1.0;
    std::vector<Entry> others;
  };

  void install_identity();
  std::vector<double> ftran_factor_space(std::vector<double> z) const;
  std::vector<double> btran_position_space(std::vector<double> c) const;
  void apply_eta_transposes(std::vector<double>& c) const;
  void solve_ut(std::vector<double>& g, std::size_t n) const;

  std::vector<std::size_t> basic_;
  // LU factors in factor space: position k of the factorisation eliminates
  // original constraint row row_of_[k] using basis position col_order_[k].
  // lcols_[k] holds the below-diagonal column k of L (unit diagonal implied),
  // ucols_[k] the above-diagonal column k of U, udiag_[k] its diagonal;
  // lrows_/urows_ are the row-major mirrors used by the transposed solves.
  std::vector<std::vector<Entry>> lcols_, lrows_, ucols_, urows_;
  std::vector<double> udiag_;
  std::vector<std::size_t> row_of_;         // factor index -> original row
  std::vector<std::size_t> factor_of_row_;  // original row -> factor index
  std::vector<std::size_t> col_order_;      // factor index -> basis position
  std::vector<Eta> etas_;
  std::vector<std::pair<std::size_t, std::size_t>> deficiency_;
  std::size_t eta_nnz_ = 0;
  std::size_t lu_nnz_ = 0;
};

}  // namespace oef::solver
