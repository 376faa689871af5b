#include "solver/lp_solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/check.h"
#include "common/clock.h"
#include "common/logging.h"
#include "solver/basis.h"
#include "solver/fault_injector.h"
#include "solver/sparse_matrix.h"
#include "solver/standard_form.h"

namespace oef::solver {

void LpSolverStats::merge(const LpSolverStats& other) {
  cold_solves += other.cold_solves;
  warm_resolves += other.warm_resolves;
  warm_start_hits += other.warm_start_hits;
  tableau_fallbacks += other.tableau_fallbacks;
  basis_repairs += other.basis_repairs;
  total_iterations += other.total_iterations;
  solve_seconds += other.solve_seconds;
}

namespace {

constexpr double kPivotTol = 1e-7;
constexpr double kFeasTol = 1e-9;
// Devex reference-framework restart threshold: when the largest weight grows
// past this, the frame is stale and all weights reset to 1.
constexpr double kDevexReset = 1e7;

double seconds_since(double start) { return common::monotonic_seconds() - start; }

}  // namespace

// Revised-simplex state: standard form (scaled, column-sparse), Basis, and
// the current basic solution. One Core corresponds to one loaded model; warm
// starts copy the Basis and the nonbasic bound statuses from the previous
// Core into the next.
//
// Variable upper bounds are handled natively (bounded-variable simplex): a
// nonbasic column rests at its lower bound (value 0) or, when at_upper_ is
// set, at its finite upper bound; the primal ratio test lets basics leave at
// either bound and lets the entering column flip bounds without a basis
// change, and the dual ratio test prices both directions. The constraint
// matrix is stored column-sparse (SparseMatrix); every pricing pass iterates
// nonzeros only.
class LpSolver::Core {
 public:
  void load(const LpModel& model, const SolverOptions& options);

  /// Two-phase cold solve from the all-slack/artificial basis.
  [[nodiscard]] SolveStatus run_cold(const SolverOptions& options);

  /// Attempts to reoptimise starting from `prior`'s basis and bound statuses.
  /// Returns kIterationLimit (without consuming iterations) when the basis
  /// cannot be reused, so the caller falls back to a cold solve.
  [[nodiscard]] SolveStatus run_warm_from(const Core& prior, const SolverOptions& options);

  /// Converts a model constraint into a standard-form row against this
  /// core's column layout (inequalities normalised to <=).
  [[nodiscard]] internal::StandardRow standard_row(const Constraint& constraint,
                                                   std::size_t constraint_index) const {
    return internal::build_standard_row(skel_, constraint, constraint_index,
                                        /*normalize_rhs=*/false);
  }

  /// Appends one inequality row (already <=-normalised by build_standard_row)
  /// with a fresh basic slack. Keeps the basis representation exact.
  void append_row(const internal::StandardRow& row, const SolverOptions& options);

  /// Warm row deletion: excises the given standard rows (== model constraint
  /// indices, sorted ascending) together with their slack/artificial columns
  /// while keeping the basic set — the dropped rows' unit columns must be
  /// basic (true for rows strictly loose at the current vertex), so the
  /// remaining basis stays nonsingular, the surviving basic values are
  /// untouched and the vertex stays optimal for the reduced model. Returns
  /// false (leaving this core unusable) when some row has no basic unit
  /// column or the reduced basis fails to refactorise.
  [[nodiscard]] bool delete_rows(const std::vector<std::size_t>& rows,
                                 const SolverOptions& options);

  /// Dual-simplex reoptimisation from the current basis (after append_row).
  [[nodiscard]] SolveStatus run_resolve(const SolverOptions& options);

  /// Extracts the solution at the current basis into `out` (values, duals,
  /// iteration counters). `model` must be the loaded model.
  void extract(const LpModel& model, LpSolution& out) const;

  [[nodiscard]] bool shape_matches(const Core& other) const;

  /// Warm identity for checkpointing: the basic set and the at-upper flags.
  /// Together with the loaded model these determine the next warm start
  /// completely (run_warm_from reads nothing else from the prior core).
  void export_warm(std::vector<std::size_t>& basic, std::vector<char>& at_upper) const {
    basic = basis_.basic();
    at_upper.assign(at_upper_.begin(), at_upper_.end());
  }

  /// Installs a checkpointed warm identity onto a freshly load()ed core and
  /// refactorises. Returns false (core unusable) on shape mismatch, a
  /// duplicate basic column, or a singular restored basis.
  [[nodiscard]] bool restore_warm(const std::vector<std::size_t>& basic,
                                  const std::vector<char>& at_upper);

  [[nodiscard]] std::size_t iterations() const { return iterations_; }
  [[nodiscard]] std::size_t phase1_iterations() const { return phase1_iterations_; }
  [[nodiscard]] std::size_t dual_iterations() const { return dual_iterations_; }

  /// Deficient basis positions repaired since the last harvest; resets the
  /// counter so LpSolver can accumulate deltas into its stats.
  [[nodiscard]] std::size_t take_basis_repairs() {
    const std::size_t repairs = basis_repairs_;
    basis_repairs_ = 0;
    return repairs;
  }

 private:
  /// B^-1 A_col via the sparse ftran.
  [[nodiscard]] std::vector<double> ftran_column(std::size_t col) const {
    return basis_.ftran(cols_.column(col));
  }
  /// out[j] += factor * (v · A_j) for every column j: the shared kernel of
  /// reduced-cost and pivot-row pricing, over CSC nonzeros.
  void accumulate_vt_a(const std::vector<double>& v, double factor,
                       std::vector<double>& out) const;
  [[nodiscard]] bool refactor();
  [[nodiscard]] bool refactor_if_due(const SolverOptions& options);
  void inject_basis_fault();
  void maybe_corrupt_eta();
  void refresh_xb();
  void rebuild_basis_flags();
  void set_at_upper(std::size_t col, bool value);
  [[nodiscard]] std::vector<double> basic_costs(bool phase1) const;
  [[nodiscard]] std::vector<double> reduced_costs(const std::vector<double>& y,
                                                  bool phase1) const;
  [[nodiscard]] double phase_objective(bool phase1) const;
  void update_primal_devex(const std::vector<double>& rho, std::size_t enter,
                           std::size_t leaving_col, double pivot_alpha);
  void update_dual_devex(const std::vector<double>& w, std::size_t leave);
  [[nodiscard]] SolveStatus run_primal(bool phase1, const SolverOptions& options);
  [[nodiscard]] SolveStatus run_dual(const SolverOptions& options);
  void drive_out_artificials();
  [[nodiscard]] SolveStatus finish_perturbed(const SolverOptions& options);

  // Structural-column metadata (a StandardForm with rows cleared).
  internal::StandardForm skel_;
  SparseMatrix cols_;  // constraint matrix, one sparse column per variable
  std::vector<Relation> relations_;  // normalised, per row
  std::vector<internal::RowRef> row_refs_;
  // Per row: the unit (slack/surplus/artificial) column ids created for it —
  // the columns that must go with the row on warm deletion.
  std::vector<std::vector<std::size_t>> row_units_;
  std::vector<double> b_;        // working rhs (scaled, possibly perturbed)
  std::vector<double> b_exact_;  // exact scaled rhs
  std::vector<double> row_scale_;
  std::vector<double> col_scale_;  // structural columns
  std::vector<double> cost_;       // phase-2 cost per column (scaled, min sense)
  std::vector<double> upper_;      // scaled upper bound per column (kInf if none)
  std::vector<char> artificial_;   // per column
  std::vector<char> in_basis_;     // per column
  std::vector<char> at_upper_;     // per column; only ever set while nonbasic
  std::size_t n_struct_ = 0;
  std::size_t num_cols_ = 0;
  std::size_t m_ = 0;
  std::size_t num_at_upper_ = 0;
  bool any_artificial_ = false;
  bool perturbed_ = false;
  bool scaling_ = false;

  // Devex reference weights: per column for the primal entering choice, per
  // row for the dual leaving-row choice. Reset to 1 at each phase entry.
  std::vector<double> primal_weights_;
  std::vector<double> dual_weights_;

  Basis basis_;
  std::vector<double> xb_;

  std::size_t max_iterations_ = 0;
  std::size_t iterations_ = 0;
  std::size_t phase1_iterations_ = 0;
  std::size_t dual_iterations_ = 0;
  std::size_t basis_repairs_ = 0;
  FaultInjector* injector_ = nullptr;  // non-owning; from SolverOptions
};

void LpSolver::Core::load(const LpModel& model, const SolverOptions& options) {
  internal::StandardForm sf =
      internal::build_standard_form(model, /*native_upper_bounds=*/true);
  scaling_ = options.enable_scaling;
  if (scaling_) {
    internal::equilibrate(sf, row_scale_, col_scale_);
  } else {
    row_scale_.assign(sf.rows.size(), 1.0);
    col_scale_.assign(sf.columns.size(), 1.0);
  }

  m_ = sf.rows.size();
  n_struct_ = sf.columns.size();
  relations_ = sf.relations;
  row_refs_ = sf.row_refs;
  b_ = sf.rhs;

  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  for (const Relation rel : sf.relations) {
    if (rel != Relation::kEqual) ++num_slack;
    if (rel != Relation::kLessEqual) ++num_artificial;
  }
  num_cols_ = n_struct_ + num_slack + num_artificial;
  any_artificial_ = num_artificial > 0;

  cost_.assign(num_cols_, 0.0);
  std::copy(sf.cost.begin(), sf.cost.end(), cost_.begin());
  upper_.assign(num_cols_, kInf);
  std::copy(sf.col_upper.begin(), sf.col_upper.end(), upper_.begin());
  artificial_.assign(num_cols_, 0);
  in_basis_.assign(num_cols_, 0);
  at_upper_.assign(num_cols_, 0);
  num_at_upper_ = 0;

  // Constraint matrix, column-sparse: pricing, refactorisation and ftran
  // columns all come from here.
  cols_.reset(m_);
  for (std::size_t j = 0; j < num_cols_; ++j) cols_.add_column();
  for (std::size_t j = 0; j < n_struct_; ++j) {
    for (std::size_t i = 0; i < m_; ++i) cols_.add_entry(j, i, sf.rows[i][j]);
  }

  std::vector<std::size_t> initial_basis(m_);
  row_units_.assign(m_, {});
  std::size_t next_slack = n_struct_;
  std::size_t next_artificial = n_struct_ + num_slack;
  for (std::size_t i = 0; i < m_; ++i) {
    const auto set_unit = [&](std::size_t col, double value) {
      cols_.add_entry(col, i, value);
      row_units_[i].push_back(col);
    };
    switch (sf.relations[i]) {
      case Relation::kLessEqual:
        set_unit(next_slack, 1.0);
        initial_basis[i] = next_slack;
        ++next_slack;
        break;
      case Relation::kGreaterEqual:
        set_unit(next_slack, -1.0);
        ++next_slack;
        set_unit(next_artificial, 1.0);
        initial_basis[i] = next_artificial;
        ++next_artificial;
        break;
      case Relation::kEqual:
        set_unit(next_artificial, 1.0);
        initial_basis[i] = next_artificial;
        ++next_artificial;
        break;
    }
  }
  for (std::size_t j = n_struct_ + num_slack; j < num_cols_; ++j) artificial_[j] = 1;

  // Anti-degeneracy rhs perturbation, mirroring the tableau path but applied
  // only to <= rows: relaxing them strictly enlarges the feasible region, so
  // it can neither manufacture infeasibility nor hide it. Equality and >=
  // rows stay exact. The exact rhs is restored (and the optimum repaired by
  // dual pivots) in finish_perturbed().
  b_exact_ = b_;
  std::uint64_t mix = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < m_; ++i) {
    mix ^= mix << 13;
    mix ^= mix >> 7;
    mix ^= mix << 17;
    if (relations_[i] != Relation::kLessEqual) continue;
    const double frac = 0.5 + 0.5 * static_cast<double>(mix >> 11) * 0x1.0p-53;
    b_[i] += 1e-7 * (1.0 + b_[i]) * frac;
    perturbed_ = true;
  }

  // Keep the structural metadata for incremental rows; drop the bulky parts.
  skel_ = std::move(sf);
  skel_.rows.clear();
  skel_.rhs.clear();
  skel_.relations.clear();
  skel_.row_refs.clear();

  basis_.set_basic(std::move(initial_basis));
  for (const std::size_t j : basis_.basic()) in_basis_[j] = 1;
  xb_ = b_;
  primal_weights_.assign(num_cols_, 1.0);
  dual_weights_.assign(m_, 1.0);

  max_iterations_ = options.max_iterations != 0 ? options.max_iterations
                                                : 200 * (m_ + num_cols_) + 10000;
  iterations_ = phase1_iterations_ = dual_iterations_ = 0;
  basis_repairs_ = 0;
  injector_ = options.fault_injector;
}

void LpSolver::Core::accumulate_vt_a(const std::vector<double>& v, double factor,
                                     std::vector<double>& out) const {
  for (std::size_t j = 0; j < num_cols_; ++j) {
    const double acc = cols_.dot_column(j, v);
    if (acc != 0.0) out[j] += factor * acc;
  }
}

void LpSolver::Core::inject_basis_fault() {
  // Duplicate one basic column: the basis matrix turns structurally singular,
  // so the next refactorisation reports a deficiency and the repair loop
  // below must patch it — the exact path real update drift exercises.
  if (m_ < 2) return;
  std::vector<std::size_t> patched = basis_.basic();
  for (std::size_t a = 0; a + 1 < m_; ++a) {
    if (patched[a] != patched[a + 1]) {
      patched[a] = patched[a + 1];
      basis_.set_basic(std::move(patched));
      rebuild_basis_flags();
      injector_->note_basis_fault();
      return;
    }
  }
}

void LpSolver::Core::maybe_corrupt_eta() {
  if (injector_ != nullptr && injector_->roll_eta_corruption() &&
      basis_.corrupt_last_eta(injector_->corruption_factor())) {
    injector_->note_eta_corruption();
  }
}

bool LpSolver::Core::refactor() {
  if (injector_ != nullptr && injector_->roll_basis_fault()) inject_basis_fault();
  if (basis_.refactor(cols_)) return true;
  // Basis repair. A refactorisation can come up deficient when accumulated
  // update drift let a pivot adopt a column the true basis does not admit
  // (the computed pivot element was noise). Patch every deficient position
  // with a unit (slack/artificial) column of its uncovered row — which
  // restores structural nonsingularity — and refactorise again; the evicted
  // columns become nonbasic at lower bound and the caller's refresh/phase
  // logic re-establishes the vertex.
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto& deficiency = basis_.deficiency();
    if (deficiency.empty()) return false;
    std::vector<std::size_t> patched = basis_.basic();
    std::size_t repairs = 0;
    for (const auto& [pos, row] : deficiency) {
      for (const std::size_t c : row_units_[row]) {
        if (!in_basis_[c]) {
          patched[pos] = c;
          in_basis_[c] = 1;  // consumed; rebuilt below either way
          ++repairs;
          break;
        }
      }
    }
    if (repairs == 0) {
      rebuild_basis_flags();
      return false;
    }
    basis_repairs_ += repairs;
    common::log_debug("lp_solver: repaired " + std::to_string(repairs) +
                      " deficient basis position(s) with unit columns");
    basis_.set_basic(std::move(patched));
    rebuild_basis_flags();
    if (basis_.refactor(cols_)) return true;
  }
  rebuild_basis_flags();
  return false;
}

bool LpSolver::Core::refactor_if_due(const SolverOptions& options) {
  // The basis refactorises when its eta file outgrows the fresh factor
  // (length or fill). Drift between refactorisations is bounded by the dual
  // path's alpha/ftran agreement check and the final is_feasible
  // verification (which falls back to the tableau on failure).
  if (!basis_.refactor_due(options.refactor_interval, options.refactor_fill_growth)) {
    return true;
  }
  if (!refactor()) return false;
  refresh_xb();
  return true;
}

void LpSolver::Core::refresh_xb() {
  if (num_at_upper_ == 0) {
    xb_ = basis_.ftran(b_);
    return;
  }
  // x_B = B^-1 (b - Σ_{j nonbasic at upper} u_j A_j).
  std::vector<double> rhs = b_;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (at_upper_[j]) cols_.axpy_column(j, -upper_[j], rhs);
  }
  xb_ = basis_.ftran(rhs);
}

void LpSolver::Core::rebuild_basis_flags() {
  std::fill(in_basis_.begin(), in_basis_.end(), 0);
  for (const std::size_t j : basis_.basic()) in_basis_[j] = 1;
}

void LpSolver::Core::set_at_upper(std::size_t col, bool value) {
  if (static_cast<bool>(at_upper_[col]) == value) return;
  at_upper_[col] = value ? 1 : 0;
  num_at_upper_ += value ? 1 : static_cast<std::size_t>(-1);
}

std::vector<double> LpSolver::Core::basic_costs(bool phase1) const {
  std::vector<double> cb(m_, 0.0);
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) {
    cb[i] = phase1 ? (artificial_[basic[i]] ? 1.0 : 0.0) : cost_[basic[i]];
  }
  return cb;
}

std::vector<double> LpSolver::Core::reduced_costs(const std::vector<double>& y,
                                                  bool phase1) const {
  std::vector<double> d(num_cols_, 0.0);
  if (phase1) {
    for (std::size_t j = 0; j < num_cols_; ++j) d[j] = artificial_[j] ? 1.0 : 0.0;
  } else {
    d = cost_;
  }
  accumulate_vt_a(y, -1.0, d);
  return d;
}

double LpSolver::Core::phase_objective(bool phase1) const {
  const std::vector<double> cb = basic_costs(phase1);
  double acc = 0.0;
  for (std::size_t i = 0; i < m_; ++i) acc += cb[i] * xb_[i];
  if (!phase1 && num_at_upper_ != 0) {
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (at_upper_[j]) acc += cost_[j] * upper_[j];
    }
  }
  return acc;
}

void LpSolver::Core::update_primal_devex(const std::vector<double>& rho, std::size_t enter,
                                         std::size_t leaving_col, double pivot_alpha) {
  if (std::abs(pivot_alpha) < 1e-12) return;
  const double gq = primal_weights_[enter];
  const double inv2 = 1.0 / (pivot_alpha * pivot_alpha);
  double biggest = 1.0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (in_basis_[j] || j == leaving_col) continue;
    const double alpha = cols_.dot_column(j, rho);
    if (alpha != 0.0) {
      const double candidate = alpha * alpha * inv2 * gq;
      if (candidate > primal_weights_[j]) primal_weights_[j] = candidate;
    }
    biggest = std::max(biggest, primal_weights_[j]);
  }
  primal_weights_[leaving_col] = std::max(gq * inv2, 1.0);
  if (biggest > kDevexReset) {
    std::fill(primal_weights_.begin(), primal_weights_.end(), 1.0);
  }
}

void LpSolver::Core::update_dual_devex(const std::vector<double>& w, std::size_t leave) {
  const double wr = w[leave];
  if (std::abs(wr) < 1e-12) return;
  const double tr = dual_weights_[leave];
  const double inv2 = 1.0 / (wr * wr);
  double biggest = 1.0;
  for (std::size_t i = 0; i < m_; ++i) {
    if (i == leave || w[i] == 0.0) continue;
    const double candidate = w[i] * w[i] * inv2 * tr;
    if (candidate > dual_weights_[i]) dual_weights_[i] = candidate;
    biggest = std::max(biggest, dual_weights_[i]);
  }
  dual_weights_[leave] = std::max(tr * inv2, 1.0);
  if (biggest > kDevexReset) {
    std::fill(dual_weights_.begin(), dual_weights_.end(), 1.0);
  }
}

SolveStatus LpSolver::Core::run_primal(bool phase1, const SolverOptions& options) {
  const double tol = options.tolerance;
  std::size_t stall = 0;
  bool bland = false;
  double last_objective = phase_objective(phase1);
  std::fill(primal_weights_.begin(), primal_weights_.end(), 1.0);
  while (true) {
    if (iterations_ >= max_iterations_) return SolveStatus::kIterationLimit;
    if (!refactor_if_due(options)) return SolveStatus::kIterationLimit;

    const std::vector<double> y = basis_.btran(basic_costs(phase1));
    const std::vector<double> d = reduced_costs(y, phase1);

    // Entering column and direction: a column at its lower bound enters
    // upward on d < 0, a column at its upper bound enters downward on d > 0.
    // Devex scores d^2 / weight; under Bland the first eligible column wins.
    // Artificials may re-enter only in phase 1.
    std::size_t enter = SIZE_MAX;
    double dir = 1.0;
    double best_score = 0.0;
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (in_basis_[j]) continue;
      if (!phase1 && artificial_[j]) continue;
      const double dj = d[j];
      double candidate_dir;
      if (!at_upper_[j] && dj < -tol) {
        candidate_dir = 1.0;
      } else if (at_upper_[j] && dj > tol) {
        candidate_dir = -1.0;
      } else {
        continue;
      }
      const double score = bland ? std::abs(dj) : dj * dj / primal_weights_[j];
      if (enter == SIZE_MAX || score > best_score) {
        best_score = score;
        enter = j;
        dir = candidate_dir;
        if (bland) break;
      }
    }
    if (enter == SIZE_MAX) return SolveStatus::kOptimal;

    const std::vector<double> w = ftran_column(enter);

    // Bounded ratio test: a basic variable may block by reaching its lower
    // bound (direction-adjusted coefficient > 0) or its finite upper bound
    // (coefficient < 0); near-ties are broken by pivot magnitude (stability)
    // or smallest basic index (Bland, termination); loose-tolerance fallback
    // before declaring unboundedness. The entering column's own finite range
    // allows a pivot-free bound flip.
    const double t_bound = upper_[enter];
    std::size_t leave = SIZE_MAX;
    bool leave_at_upper = false;
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_pivot = 0.0;
    const auto& basic = basis_.basic();
    for (std::size_t i = 0; i < m_; ++i) {
      const double a = dir * w[i];
      double ratio;
      bool to_upper;
      if (a > kPivotTol) {
        ratio = std::max(0.0, xb_[i]) / a;
        to_upper = false;
      } else if (a < -kPivotTol && std::isfinite(upper_[basic[i]])) {
        ratio = std::max(0.0, upper_[basic[i]] - xb_[i]) / -a;
        to_upper = true;
      } else {
        continue;
      }
      const double tie_band = 1e-9 * (1.0 + ratio);
      if (leave == SIZE_MAX || ratio < best_ratio - tie_band) {
        best_ratio = ratio;
        leave = i;
        leave_at_upper = to_upper;
        best_pivot = std::abs(a);
      } else if (ratio < best_ratio + tie_band) {
        if (bland ? basic[i] < basic[leave] : std::abs(a) > best_pivot) {
          best_ratio = std::min(best_ratio, ratio);
          leave = i;
          leave_at_upper = to_upper;
          best_pivot = std::abs(a);
        }
      }
    }
    if (leave == SIZE_MAX && !std::isfinite(t_bound)) {
      for (std::size_t i = 0; i < m_; ++i) {
        const double a = dir * w[i];
        double ratio;
        bool to_upper;
        if (a > tol) {
          ratio = std::max(0.0, xb_[i]) / a;
          to_upper = false;
        } else if (a < -tol && std::isfinite(upper_[basic[i]])) {
          ratio = std::max(0.0, upper_[basic[i]] - xb_[i]) / -a;
          to_upper = true;
        } else {
          continue;
        }
        if (ratio < best_ratio) {
          best_ratio = ratio;
          leave = i;
          leave_at_upper = to_upper;
        }
      }
    }
    if (leave == SIZE_MAX && !std::isfinite(t_bound)) {
      return phase1 ? SolveStatus::kInfeasible : SolveStatus::kUnbounded;
    }

    if (std::isfinite(t_bound) && (leave == SIZE_MAX || t_bound <= best_ratio)) {
      // Bound flip: the entering variable crosses its whole range without any
      // basic variable blocking — no basis change, just the statuses.
      for (std::size_t i = 0; i < m_; ++i) xb_[i] -= t_bound * dir * w[i];
      set_at_upper(enter, dir > 0.0);
      ++iterations_;
      if (phase1) ++phase1_iterations_;
    } else {
      std::vector<double> rho;
      if (!bland) rho = basis_.btran_unit(leave);  // pre-pivot copy
      const double t = best_ratio;
      for (std::size_t i = 0; i < m_; ++i) {
        if (i != leave) xb_[i] -= t * dir * w[i];
      }
      const std::size_t leaving_col = basic[leave];
      xb_[leave] = dir > 0.0 ? t : upper_[enter] - t;
      in_basis_[leaving_col] = 0;
      in_basis_[enter] = 1;
      set_at_upper(enter, false);
      set_at_upper(leaving_col, leave_at_upper);
      basis_.pivot(leave, enter, w);
      maybe_corrupt_eta();
      ++iterations_;
      if (phase1) ++phase1_iterations_;
      if (!bland) update_primal_devex(rho, enter, leaving_col, w[leave]);
    }

    const double objective = phase_objective(phase1);
    if (objective >= last_objective - tol) {
      if (++stall >= options.stall_limit) bland = true;
    } else {
      stall = 0;
      bland = false;
    }
    last_objective = objective;
  }
}

SolveStatus LpSolver::Core::run_dual(const SolverOptions& options) {
  const double tol = options.tolerance;
  std::size_t stall = 0;
  bool bland = false;
  double last_infeasibility = std::numeric_limits<double>::infinity();
  std::fill(dual_weights_.begin(), dual_weights_.end(), 1.0);
  while (true) {
    if (iterations_ >= max_iterations_) return SolveStatus::kIterationLimit;
    if (!refactor_if_due(options)) return SolveStatus::kIterationLimit;

    // Leaving row: a basic variable below its lower bound (leaves at lower)
    // or above its finite upper bound (leaves at upper). Devex scores
    // violation^2 / weight; Bland takes the first violating row. The
    // infeasibility sum always covers every row — it feeds the stall
    // detector, which must not flap just because Bland picked an early row.
    const auto& basic = basis_.basic();
    std::size_t leave = SIZE_MAX;
    bool above = false;
    std::size_t first_violating = SIZE_MAX;
    bool first_above = false;
    double best_score = 0.0;
    double infeasibility = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const double ub = upper_[basic[i]];
      double delta;
      bool is_above;
      if (xb_[i] < -kFeasTol) {
        delta = -xb_[i];
        is_above = false;
      } else if (std::isfinite(ub) && xb_[i] > ub + kFeasTol) {
        delta = xb_[i] - ub;
        is_above = true;
      } else {
        continue;
      }
      infeasibility += delta;
      if (first_violating == SIZE_MAX) {
        first_violating = i;
        first_above = is_above;
      }
      const double score = bland ? delta : delta * delta / dual_weights_[i];
      if (leave == SIZE_MAX || score > best_score) {
        best_score = score;
        leave = i;
        above = is_above;
      }
    }
    if (bland && first_violating != SIZE_MAX) {
      leave = first_violating;
      above = first_above;
    }
    if (leave == SIZE_MAX) return SolveStatus::kOptimal;

    const std::vector<double> y = basis_.btran(basic_costs(/*phase1=*/false));
    const std::vector<double> d = reduced_costs(y, /*phase1=*/false);

    // alpha = (row `leave` of B^-1) * A, per column.
    const std::vector<double> rho = basis_.btran_unit(leave);
    std::vector<double> alpha(num_cols_, 0.0);
    accumulate_vt_a(rho, 1.0, alpha);

    // Dual ratio test over both bound directions. sigma = +1 when the
    // leaving variable exits at its lower bound (its basic value must rise),
    // -1 when it exits at its upper bound. An at-lower column is eligible
    // when sigma*alpha < 0 (it will increase), an at-upper column when
    // sigma*alpha > 0 (it will decrease); either way the entering column
    // minimises |d| / |alpha|, keeping dual feasibility. Ties are broken by
    // pivot magnitude, or smallest index under Bland.
    const double sigma = above ? -1.0 : 1.0;
    const auto pick_entering = [&](double pivot_tol) {
      std::size_t enter = SIZE_MAX;
      double best_ratio = std::numeric_limits<double>::infinity();
      double best_pivot = 0.0;
      for (std::size_t j = 0; j < num_cols_; ++j) {
        if (in_basis_[j] || artificial_[j]) continue;
        const double a = sigma * alpha[j];
        double ratio;
        if (!at_upper_[j]) {
          if (a >= -pivot_tol) continue;
          ratio = std::max(0.0, d[j]) / -a;
        } else {
          if (a <= pivot_tol) continue;
          ratio = std::max(0.0, -d[j]) / a;
        }
        const double tie_band = 1e-9 * (1.0 + ratio);
        if (enter == SIZE_MAX || ratio < best_ratio - tie_band) {
          best_ratio = ratio;
          enter = j;
          best_pivot = std::abs(a);
        } else if (ratio < best_ratio + tie_band) {
          if (bland ? j < enter : std::abs(a) > best_pivot) {
            best_ratio = std::min(best_ratio, ratio);
            enter = j;
            best_pivot = std::abs(a);
          }
        }
      }
      return enter;
    };
    std::size_t enter = pick_entering(kPivotTol);
    if (enter == SIZE_MAX) enter = pick_entering(tol);
    if (enter == SIZE_MAX) return SolveStatus::kInfeasible;

    const std::vector<double> w = ftran_column(enter);
    if (std::abs(w[leave]) < tol) {
      // Numerical disagreement between alpha and the ftran column; refactor
      // and retry, giving up if it persists.
      if (!refactor()) return SolveStatus::kIterationLimit;
      refresh_xb();
      if (++stall >= options.stall_limit) return SolveStatus::kIterationLimit;
      continue;
    }

    // The leaving basic moves to its violated bound; the entering variable
    // absorbs the displacement from whichever bound it rested at.
    const double target = above ? upper_[basic[leave]] : 0.0;
    const double step = (xb_[leave] - target) / w[leave];
    for (std::size_t i = 0; i < m_; ++i) {
      if (i != leave) xb_[i] -= step * w[i];
    }
    const std::size_t leaving_col = basic[leave];
    xb_[leave] = (at_upper_[enter] ? upper_[enter] : 0.0) + step;
    in_basis_[leaving_col] = 0;
    in_basis_[enter] = 1;
    set_at_upper(enter, false);
    set_at_upper(leaving_col, above);
    if (!bland) update_dual_devex(w, leave);
    basis_.pivot(leave, enter, w);
    maybe_corrupt_eta();
    ++iterations_;
    ++dual_iterations_;

    if (infeasibility >= last_infeasibility - tol) {
      if (++stall >= options.stall_limit) bland = true;
    } else {
      stall = 0;
      bland = false;
    }
    last_infeasibility = infeasibility;
  }
}

void LpSolver::Core::drive_out_artificials() {
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) {
    if (!artificial_[basic[i]]) continue;
    const std::vector<double> rho = basis_.btran_unit(i);
    std::vector<double> alpha(num_cols_, 0.0);
    accumulate_vt_a(rho, 1.0, alpha);
    // Pick the largest structural |alpha| among at-lower nonbasic columns.
    std::size_t enter = SIZE_MAX;
    double best = 1e-8;
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (in_basis_[j] || artificial_[j] || at_upper_[j]) continue;
      if (std::abs(alpha[j]) > best) {
        best = std::abs(alpha[j]);
        enter = j;
      }
    }
    if (enter == SIZE_MAX) continue;  // redundant row; artificial stays ~0
    const std::vector<double> w = ftran_column(enter);
    if (std::abs(w[i]) < 1e-10) continue;
    const double t = xb_[i] / w[i];
    for (std::size_t r = 0; r < m_; ++r) {
      if (r != i) xb_[r] -= t * w[r];
    }
    xb_[i] = t;
    in_basis_[basis_.basic()[i]] = 0;
    in_basis_[enter] = 1;
    basis_.pivot(i, enter, w);
  }
}

SolveStatus LpSolver::Core::finish_perturbed(const SolverOptions& options) {
  if (!perturbed_) return SolveStatus::kOptimal;
  b_ = b_exact_;
  perturbed_ = false;
  // B^-1 does not depend on the rhs, so no refactorisation is needed here —
  // only the basic values move. refactor_if_due still bounds drift.
  if (!refactor_if_due(options)) return SolveStatus::kIterationLimit;
  refresh_xb();
  bool feasible = true;
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) {
    if (xb_[i] < -kFeasTol || xb_[i] > upper_[basic[i]] + kFeasTol) feasible = false;
  }
  if (feasible) return SolveStatus::kOptimal;
  // Restoring the exact rhs tightened the relaxed <= rows: the basis stays
  // dual-feasible, so a few dual pivots repair primal feasibility.
  return run_dual(options);
}

SolveStatus LpSolver::Core::run_cold(const SolverOptions& options) {
  if (m_ == 0) {
    // No constraints: each column rests at whichever bound its cost prefers;
    // a negative-cost column without a finite upper bound is unbounded.
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (cost_[j] < -options.tolerance) {
        if (!std::isfinite(upper_[j])) return SolveStatus::kUnbounded;
        set_at_upper(j, true);
      }
    }
    return SolveStatus::kOptimal;
  }
  if (any_artificial_) {
    const SolveStatus phase1 = run_primal(/*phase1=*/true, options);
    if (phase1 != SolveStatus::kOptimal) return phase1;
    if (phase_objective(/*phase1=*/true) > 1e-6) return SolveStatus::kInfeasible;
    drive_out_artificials();
  }
  const SolveStatus phase2 = run_primal(/*phase1=*/false, options);
  if (phase2 != SolveStatus::kOptimal) return phase2;
  return finish_perturbed(options);
}

SolveStatus LpSolver::Core::run_warm_from(const Core& prior, const SolverOptions& options) {
  basis_ = prior.basis_;
  rebuild_basis_flags();
  // The nonbasic bound statuses are part of the vertex; restore them and
  // re-establish the invariants that basic columns carry no at-upper flag
  // and that at-upper columns still have a finite bound (a same-shaped model
  // may have widened a bound to infinity — resting there would poison xb
  // with non-finite values).
  at_upper_ = prior.at_upper_;
  num_at_upper_ = 0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (in_basis_[j] || !std::isfinite(upper_[j])) at_upper_[j] = 0;
    if (at_upper_[j]) ++num_at_upper_;
  }
  // The perturbation exists to help cold starts through degenerate phase-1
  // vertices; a warm start lands near the optimum, so reoptimise exactly.
  b_ = b_exact_;
  perturbed_ = false;
  if (!refactor()) return SolveStatus::kIterationLimit;
  refresh_xb();

  bool primal_feasible = true;
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) {
    if (xb_[i] < -kFeasTol || xb_[i] > upper_[basic[i]] + kFeasTol) primal_feasible = false;
  }
  if (primal_feasible) return run_primal(/*phase1=*/false, options);

  const std::vector<double> y = basis_.btran(basic_costs(/*phase1=*/false));
  const std::vector<double> d = reduced_costs(y, /*phase1=*/false);
  bool dual_feasible = true;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (in_basis_[j] || artificial_[j]) continue;
    if (at_upper_[j] ? d[j] > 1e-7 : d[j] < -1e-7) dual_feasible = false;
  }
  if (!dual_feasible) {
    // Neither feasible: simultaneous cost/coefficient and activity drift
    // (e.g. a demand burst rescaling both the objective and the envy rows).
    // Classic cost-shifting rescue (dual phase 1): temporarily shift each
    // offending nonbasic cost so the restored basis IS dual feasible, let
    // the dual simplex restore primal feasibility, then drop the shifts and
    // polish with primal pivots from the now-feasible vertex. Far cheaper
    // than discarding the basis: the vertex is near-optimal already.
    std::vector<std::pair<std::size_t, double>> shifts;
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (in_basis_[j] || artificial_[j]) continue;
      if (at_upper_[j] ? d[j] > 1e-7 : d[j] < -1e-7) {
        shifts.push_back({j, d[j]});
        cost_[j] -= d[j];
      }
    }
    const SolveStatus shifted = run_dual(options);
    for (const auto& [j, delta] : shifts) cost_[j] += delta;
    // Non-optimal here says nothing definite about the true problem (the
    // costs were shifted); report iteration-limit so the caller cold-solves.
    if (shifted != SolveStatus::kOptimal) return SolveStatus::kIterationLimit;
    return run_primal(/*phase1=*/false, options);
  }
  const SolveStatus status = run_dual(options);
  if (status != SolveStatus::kOptimal) return status;
  // Dual pivots restored primal feasibility; polish any remaining reduced
  // costs (coefficient changes can leave the vertex slightly suboptimal).
  return run_primal(/*phase1=*/false, options);
}

void LpSolver::Core::append_row(const internal::StandardRow& row,
                                const SolverOptions& options) {
  OEF_CHECK(row.relation == Relation::kLessEqual);
  std::vector<double> coeffs(num_cols_ + 1, 0.0);
  double biggest = 0.0;
  for (std::size_t j = 0; j < n_struct_; ++j) {
    coeffs[j] = row.coeffs[j] * col_scale_[j];
    biggest = std::max(biggest, std::abs(coeffs[j]));
  }
  const double rscale = (scaling_ && biggest > 0.0) ? 1.0 / biggest : 1.0;
  for (std::size_t j = 0; j < n_struct_; ++j) coeffs[j] *= rscale;
  const double rhs = row.rhs * rscale;

  // New slack column, basic in the new row.
  const std::size_t slack_col = num_cols_;
  coeffs[slack_col] = 1.0;
  cols_.set_rows(m_ + 1);
  for (std::size_t j = 0; j < n_struct_; ++j) cols_.add_entry(j, m_, coeffs[j]);
  cols_.add_column();
  cols_.add_entry(slack_col, m_, 1.0);
  cost_.push_back(0.0);
  upper_.push_back(kInf);
  artificial_.push_back(0);
  in_basis_.push_back(1);
  at_upper_.push_back(0);
  primal_weights_.push_back(1.0);
  dual_weights_.push_back(1.0);
  ++num_cols_;

  std::vector<double> row_basic(m_, 0.0);
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) row_basic[i] = coeffs[basic[i]];
  basis_.append_row(row_basic, slack_col);

  relations_.push_back(Relation::kLessEqual);
  row_refs_.push_back(row.ref);
  row_units_.push_back({slack_col});
  b_.push_back(rhs);
  b_exact_.push_back(rhs);
  row_scale_.push_back(rscale);
  xb_.push_back(0.0);  // refreshed in run_resolve
  ++m_;
  max_iterations_ = options.max_iterations != 0 ? options.max_iterations
                                                : 200 * (m_ + num_cols_) + 10000;
}

bool LpSolver::Core::delete_rows(const std::vector<std::size_t>& rows,
                                 const SolverOptions& options) {
  if (rows.empty()) return true;

  // Every deleted row must be covered by a basic unit column of its own
  // (slack, surplus or artificial): that is what keeps the reduced basis
  // nonsingular and the surviving basic values untouched. A loose row always
  // qualifies — its positive slack is basic — so the compaction path never
  // fails here; checked up front so failure leaves the core unmodified.
  std::vector<std::size_t> pos_of_col(num_cols_, SIZE_MAX);
  {
    const auto& basic = basis_.basic();
    for (std::size_t p = 0; p < m_; ++p) pos_of_col[basic[p]] = p;
  }
  std::vector<char> drop_row(m_, 0);
  std::vector<char> drop_col(num_cols_, 0);
  std::vector<std::size_t> positions;
  positions.reserve(rows.size());
  for (const std::size_t r : rows) {
    OEF_CHECK(r < m_);
    std::size_t covering = SIZE_MAX;
    for (const std::size_t c : row_units_[r]) {
      if (pos_of_col[c] != SIZE_MAX) {
        covering = pos_of_col[c];
        break;
      }
    }
    if (covering == SIZE_MAX) return false;
    positions.push_back(covering);
    drop_row[r] = 1;
    for (const std::size_t c : row_units_[r]) drop_col[c] = 1;
  }
  std::sort(positions.begin(), positions.end());

  std::vector<std::size_t> col_remap(num_cols_, SIZE_MAX);
  std::vector<std::size_t> row_remap(m_, SIZE_MAX);
  std::size_t new_cols = 0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (!drop_col[j]) col_remap[j] = new_cols++;
  }
  std::size_t new_rows = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    if (!drop_row[i]) row_remap[i] = new_rows++;
  }

  basis_.delete_rows(positions, col_remap);

  // Renumber the constraint matrix and every per-row / per-column array.
  SparseMatrix reduced;
  reduced.reset(new_rows);
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (drop_col[j]) continue;
    const std::size_t nj = reduced.add_column();
    for (const SparseEntry& e : cols_.column(j)) {
      if (!drop_row[e.row]) reduced.add_entry(nj, row_remap[e.row], e.value);
    }
  }
  cols_ = std::move(reduced);

  const auto filter_rows = [&](auto& vec) {
    std::remove_reference_t<decltype(vec)> kept;
    kept.reserve(new_rows);
    for (std::size_t i = 0; i < m_; ++i) {
      if (!drop_row[i]) kept.push_back(std::move(vec[i]));
    }
    vec = std::move(kept);
  };
  const auto filter_cols = [&](auto& vec) {
    std::remove_reference_t<decltype(vec)> kept;
    kept.reserve(new_cols);
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (!drop_col[j]) kept.push_back(std::move(vec[j]));
    }
    vec = std::move(kept);
  };
  // Standard rows and model constraints share indices, so the deleted model
  // constraints are exactly `rows` and the surviving refs renumber through
  // the same row remap.
  for (internal::RowRef& ref : row_refs_) {
    if (ref.constraint != SIZE_MAX) ref.constraint = row_remap[ref.constraint];
  }
  filter_rows(relations_);
  filter_rows(row_refs_);
  filter_rows(row_units_);
  for (auto& units : row_units_) {
    for (std::size_t& c : units) c = col_remap[c];
  }
  filter_rows(b_);
  filter_rows(b_exact_);
  filter_rows(row_scale_);
  {
    // Dual devex weights are indexed by basis position (the leaving-row
    // candidates), so they shrink by the excised positions, not by the
    // deleted constraint rows.
    std::vector<char> drop_pos(m_, 0);
    for (const std::size_t p : positions) drop_pos[p] = 1;
    std::vector<double> kept;
    kept.reserve(new_rows);
    for (std::size_t p = 0; p < m_; ++p) {
      if (!drop_pos[p]) kept.push_back(dual_weights_[p]);
    }
    dual_weights_ = std::move(kept);
  }
  filter_cols(cost_);
  filter_cols(upper_);
  filter_cols(artificial_);
  filter_cols(at_upper_);
  filter_cols(primal_weights_);
  filter_cols(in_basis_);  // size must track num_cols_: append_row pushes onto it
  m_ = new_rows;
  num_cols_ = new_cols;
  rebuild_basis_flags();
  num_at_upper_ = 0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (at_upper_[j]) ++num_at_upper_;
  }
  any_artificial_ = false;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (artificial_[j]) any_artificial_ = true;
  }
  max_iterations_ = options.max_iterations != 0 ? options.max_iterations
                                                : 200 * (m_ + num_cols_) + 10000;

  // A fresh (cheap, sparse) factorisation of the reduced basis; the
  // surviving basic values are recomputed from the reduced rhs — the vertex
  // itself is unchanged (the deleted rows carried basic slacks).
  if (!refactor()) return false;
  refresh_xb();
  return true;
}

SolveStatus LpSolver::Core::run_resolve(const SolverOptions& options) {
  iterations_ = phase1_iterations_ = dual_iterations_ = 0;
  // append_row() kept the basis representation exact (bordered update /
  // inverse extension), but a resolve refactorises unconditionally anyway —
  // same rationale as run_warm_from: continuation is then a pure function of
  // (model, basic set, at-upper flags), which is exactly the checkpoint
  // identity, so a solver restored from a checkpoint pivots bit-identically
  // to the uninterrupted one. An accumulated eta file and a fresh
  // factorisation of the same basis differ in low bits; one bounded LU per
  // resolve buys determinism across restarts.
  if (!refactor()) return SolveStatus::kIterationLimit;
  refresh_xb();
  const SolveStatus status = run_dual(options);
  if (status != SolveStatus::kOptimal) return status;
  // The previous optimum was dual-feasible, so dual pivots suffice; a final
  // primal pass guards against tolerance drift re-opening reduced costs.
  return run_primal(/*phase1=*/false, options);
}

void LpSolver::Core::extract(const LpModel& model, LpSolution& out) const {
  std::vector<double> column_values(num_cols_, 0.0);
  if (num_at_upper_ != 0) {
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (at_upper_[j]) column_values[j] = upper_[j];
    }
  }
  const auto& basic = basis_.basic();
  for (std::size_t i = 0; i < m_; ++i) {
    double value = std::max(0.0, xb_[i]);
    const double ub = upper_[basic[i]];
    if (std::isfinite(ub)) value = std::min(value, ub);
    column_values[basic[i]] = value;
  }

  out.values.assign(model.num_variables(), 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) {
    const double y = column_values[j] * col_scale_[j];
    out.values[skel_.columns[j].var] += skel_.columns[j].sign * y;
  }
  for (std::size_t v = 0; v < model.num_variables(); ++v) {
    out.values[v] += skel_.var_shift[v];
  }
  out.objective = model.objective_value(out.values);

  const std::vector<double> y = basis_.btran(basic_costs(/*phase1=*/false));
  out.duals.assign(model.num_constraints(), 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const internal::RowRef& ref = row_refs_[i];
    if (ref.constraint == SIZE_MAX) continue;
    out.duals[ref.constraint] = skel_.sense_sign * ref.sign * y[i] * row_scale_[i];
  }

  out.iterations = iterations_;
  out.phase1_iterations = phase1_iterations_;
  out.dual_iterations = dual_iterations_;
}

bool LpSolver::Core::restore_warm(const std::vector<std::size_t>& basic,
                                  const std::vector<char>& at_upper) {
  if (basic.size() != m_ || at_upper.size() != num_cols_) return false;
  std::vector<char> seen(num_cols_, 0);
  for (const std::size_t col : basic) {
    if (col >= num_cols_ || seen[col]) return false;
    seen[col] = 1;
  }
  basis_.set_basic(basic);
  rebuild_basis_flags();
  // Mirror run_warm_from's status invariants: basic columns carry no at-upper
  // flag and at-upper columns must still have a finite bound.
  at_upper_ = at_upper;
  num_at_upper_ = 0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (in_basis_[j] || !std::isfinite(upper_[j])) at_upper_[j] = 0;
    if (at_upper_[j]) ++num_at_upper_;
  }
  b_ = b_exact_;
  perturbed_ = false;
  if (!refactor()) return false;
  refresh_xb();
  return true;
}

bool LpSolver::Core::shape_matches(const Core& other) const {
  return m_ == other.m_ && num_cols_ == other.num_cols_ &&
         n_struct_ == other.n_struct_ && relations_ == other.relations_ &&
         skel_.columns.size() == other.skel_.columns.size();
}

// ---------------------------------------------------------------------------
// LpSolver
// ---------------------------------------------------------------------------

LpSolver::LpSolver(SolverOptions options) : options_(options) {}
LpSolver::~LpSolver() = default;
LpSolver::LpSolver(LpSolver&&) noexcept = default;
LpSolver& LpSolver::operator=(LpSolver&&) noexcept = default;

LpSolver::LpSolver(const LpSolver& other)
    : options_(other.options_),
      model_(other.model_),
      core_(other.core_ ? std::make_unique<Core>(*other.core_) : nullptr),
      stats_(other.stats_),
      incremental_ok_(other.incremental_ok_) {}

LpSolver& LpSolver::operator=(const LpSolver& other) {
  if (this != &other) {
    options_ = other.options_;
    model_ = other.model_;
    core_ = other.core_ ? std::make_unique<Core>(*other.core_) : nullptr;
    stats_ = other.stats_;
    incremental_ok_ = other.incremental_ok_;
  }
  return *this;
}

bool LpSolver::has_basis() const { return core_ != nullptr && incremental_ok_; }

std::optional<LpWarmState> LpSolver::export_warm_state() const {
  if (!has_basis()) return std::nullopt;
  LpWarmState state;
  state.model = model_;
  core_->export_warm(state.basic, state.at_upper);
  return state;
}

bool LpSolver::import_warm_state(const LpWarmState& state) {
  model_ = state.model;
  core_.reset();
  incremental_ok_ = false;
  if (options_.algorithm == LpAlgorithm::kTableau) return false;
  auto core = std::make_unique<Core>();
  core->load(model_, options_);
  if (!core->restore_warm(state.basic, state.at_upper)) return false;
  stats_.basis_repairs += core->take_basis_repairs();
  core_ = std::move(core);
  incremental_ok_ = true;
  return true;
}

LpSolution LpSolver::solve_loaded_cold() {
  // Cold rungs of the degradation ladder. The caller already exhausted any
  // warm option, so escalation is deterministic from here: (1) the revised
  // simplex (whose refactorisations repair deficient bases in place); (2)
  // the reference full-tableau solver, which shares no basis machinery at
  // all — and never consults the fault injector — so it terminates the
  // ladder.
  ++stats_.cold_solves;
  auto core = std::make_unique<Core>();
  core->load(model_, options_);
  LpSolution solution;
  solution.status = core->run_cold(options_);
  stats_.total_iterations += core->iterations();
  stats_.basis_repairs += core->take_basis_repairs();
  if (solution.status == SolveStatus::kOptimal) {
    core->extract(model_, solution);
    if (model_.is_feasible(solution.values, 1e-6)) {
      core_ = std::move(core);
      incremental_ok_ = true;
      return solution;
    }
  }
  // The revised solve failed or produced an unverifiable point: reference
  // tableau. Dramatically slower on large models, so its trigger is worth a
  // log line (to_string names the revised outcome).
  common::log_debug("lp_solver: revised cold solve failed (" + to_string(solution.status) +
                    "); falling back to the reference tableau");
  ++stats_.tableau_fallbacks;
  core_.reset();
  incremental_ok_ = false;
  solution = SimplexSolver(options_).solve(model_);
  stats_.total_iterations += solution.iterations;
  return solution;
}

LpSolution LpSolver::solve(const LpModel& model) {
  const double start = common::monotonic_seconds();
  std::unique_ptr<Core> previous = std::move(core_);
  const bool had_basis = previous != nullptr && incremental_ok_;
  model_ = model;
  core_.reset();
  incremental_ok_ = false;

  if (options_.algorithm == LpAlgorithm::kTableau) {
    LpSolution solution = SimplexSolver(options_).solve(model_);
    ++stats_.cold_solves;
    stats_.total_iterations += solution.iterations;
    stats_.solve_seconds += seconds_since(start);
    return solution;
  }

  if (options_.warm_start && had_basis) {
    auto core = std::make_unique<Core>();
    core->load(model_, options_);
    if (core->shape_matches(*previous)) {
      LpSolution solution;
      solution.status = core->run_warm_from(*previous, options_);
      stats_.total_iterations += core->iterations();
      stats_.basis_repairs += core->take_basis_repairs();
      if (solution.status == SolveStatus::kOptimal) {
        core->extract(model_, solution);
        if (model_.is_feasible(solution.values, 1e-6)) {
          solution.warm_started = true;
          ++stats_.warm_start_hits;
          core_ = std::move(core);
          incremental_ok_ = true;
          stats_.solve_seconds += seconds_since(start);
          return solution;
        }
      }
      // Warm attempt failed; fall through to a cold solve.
    }
  }

  LpSolution solution = solve_loaded_cold();
  stats_.solve_seconds += seconds_since(start);
  return solution;
}

bool LpSolver::delete_rows(const std::vector<std::size_t>& row_indices) {
  if (row_indices.empty()) return has_basis();
  std::vector<std::size_t> sorted = row_indices;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // Out-of-range indices are caller misconfiguration at a module boundary
  // (LazyConstraintSolver and embedders drive this API), so report them as a
  // catchable CheckError rather than aborting; see check.h for the policy.
  for (const std::size_t r : sorted) {
    OEF_REQUIRE_MSG(r < model_.num_constraints(),
                    "delete_rows index past the loaded model's constraints");
  }

  bool warm = false;
  if (options_.algorithm != LpAlgorithm::kTableau && core_ && incremental_ok_) {
    warm = core_->delete_rows(sorted, options_);
    stats_.basis_repairs += core_->take_basis_repairs();
    if (!warm) {
      // Either some row had no basic unit column (so the excision would
      // leave a singular basis) or the reduced refactorisation failed; the
      // core may be part-mutated, so drop it and let the next solve/resolve
      // rebuild cold from the shrunken model.
      core_.reset();
      incremental_ok_ = false;
    }
  }
  model_.remove_constraints(sorted);
  return warm;
}

std::size_t LpSolver::add_rows(const std::vector<Constraint>& rows) {
  std::size_t accepted = 0;
  for (const Constraint& constraint : rows) {
    const std::size_t index = model_.add_constraint(constraint);
    ++accepted;
    if (options_.algorithm == LpAlgorithm::kTableau) continue;
    if (!core_ || !incremental_ok_) continue;
    if (constraint.relation == Relation::kEqual) {
      // Equality rows are not dual-warm-startable from a slack basis; degrade
      // this resolve to a cold solve of the extended model.
      incremental_ok_ = false;
      continue;
    }
    core_->append_row(core_->standard_row(constraint, index), options_);
  }
  return accepted;
}

LpSolution LpSolver::resolve() {
  const double start = common::monotonic_seconds();
  if (options_.algorithm == LpAlgorithm::kTableau || !core_ || !incremental_ok_) {
    LpSolution solution;
    if (options_.algorithm == LpAlgorithm::kTableau) {
      solution = SimplexSolver(options_).solve(model_);
      ++stats_.cold_solves;
      stats_.total_iterations += solution.iterations;
    } else {
      solution = solve_loaded_cold();
    }
    stats_.solve_seconds += seconds_since(start);
    return solution;
  }

  LpSolution solution;
  solution.status = core_->run_resolve(options_);
  stats_.total_iterations += core_->iterations();
  stats_.basis_repairs += core_->take_basis_repairs();
  if (solution.status == SolveStatus::kOptimal) {
    core_->extract(model_, solution);
    if (model_.is_feasible(solution.values, 1e-6)) {
      solution.warm_started = true;
      ++stats_.warm_resolves;
      stats_.solve_seconds += seconds_since(start);
      return solution;
    }
  }
  // Warm resolve failed (numerics, iteration limit, or claimed infeasible —
  // which a tightened relaxation can legitimately be, but is cheap to
  // confirm): cold-solve the extended model.
  solution = solve_loaded_cold();
  stats_.solve_seconds += seconds_since(start);
  return solution;
}

}  // namespace oef::solver
