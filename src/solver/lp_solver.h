// Stateful LP solver with an incremental-resolve API.
//
// Where SimplexSolver is a single-shot full-tableau solve, LpSolver keeps the
// standard form, the Basis and the last optimal vertex alive between calls,
// which enables three kinds of warm work:
//
//   * add_rows() + resolve(): newly separated constraints (the lazy
//     envy-freeness rows of cooperative OEF) are appended to the loaded
//     problem and reoptimised with the dual simplex from the previous optimal
//     basis — the previous optimum stays dual-feasible, so typically a
//     handful of pivots replace a full two-phase re-solve.
//   * delete_rows(): rows loose at the current optimum (their slacks basic)
//     are excised together with their slack columns while the basis, the
//     vertex and the duals survive — which lets relaxation compaction shrink
//     the working LP without the cold re-solve it used to force.
//   * solve() basis reuse: when a new model has exactly the same shape as the
//     previously solved one (same variables, rows and relations — the
//     round-over-round case in the simulator, where only coefficients move),
//     the previous basis is refactorised against the new coefficients and
//     reoptimised with primal or dual pivots instead of starting cold.
//
// The engine is a bounded-variable revised simplex over a sparse LU basis
// with a product-form eta file (basis.h) — O(nnz) solves/updates, which
// carries the cooperative sweep to n ~ 1000. The constraint matrix is stored
// column-sparse (sparse_matrix.h) so pricing passes iterate nonzeros only,
// finite variable upper bounds live in the basis as nonbasic-at-upper
// statuses and bound flips instead of synthetic rows, and entering/leaving
// choices use devex reference weights (Bland's rule on stalling).
// SolverOptions::algorithm == LpAlgorithm::kTableau degrades every call to
// the reference full-tableau SimplexSolver (no warm starts), and the revised
// path falls back to the tableau automatically whenever it fails to reach a
// verified optimum; stats().tableau_fallbacks counts those.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "solver/lp_model.h"
#include "solver/simplex.h"

namespace oef::solver {

/// The warm identity of a solver: everything the next solve() reads from the
/// previous one. A warm start refactorises from the basic set (see
/// Core::run_warm_from), so the basic column of each basis position and the
/// nonbasic at-upper flags are the whole vertex; the row relations and the
/// structural column count are the shape a new model must have for the
/// identity to apply. Round-over-round basis reuse and checkpoint restore
/// (solver/checkpoint.h) both enter through it, so a restored solver's next
/// solve is pivot-identical to the uninterrupted one.
struct LpWarmState {
  std::vector<std::size_t> basic;
  std::vector<char> at_upper;
  std::vector<Relation> relations;
  std::size_t num_structural = 0;
};

/// Cumulative counters across the lifetime of one LpSolver.
struct LpSolverStats {
  /// Two-phase solves from scratch (including fallbacks inside warm calls).
  std::size_t cold_solves = 0;
  /// add_rows() + resolve() calls completed by warm dual-simplex pivots.
  std::size_t warm_resolves = 0;
  /// solve() calls completed by reusing the previous basis.
  std::size_t warm_start_hits = 0;
  /// Always 0: the dense-basis rung is gone; kept for perfbench/, which reads it.
  std::size_t dense_fallbacks = 0;
  /// Cold revised-path failures answered by the reference tableau solver
  /// (the ladder's last solver rung: warm resolve → basis repair → cold
  /// revised → tableau).
  std::size_t tableau_fallbacks = 0;
  /// Deficient basis positions patched with unit columns during
  /// refactorisation (the singular-basis repair path; see Core::refactor).
  std::size_t basis_repairs = 0;
  /// Simplex pivots across all calls (primal + dual, all phases).
  std::size_t total_iterations = 0;
  /// Wall-clock seconds spent inside solve()/resolve().
  double solve_seconds = 0.0;

  void merge(const LpSolverStats& other);
};

class LpSolver {
 public:
  explicit LpSolver(SolverOptions options = {});
  ~LpSolver();
  LpSolver(const LpSolver& other);
  LpSolver& operator=(const LpSolver& other);
  LpSolver(LpSolver&&) noexcept;
  LpSolver& operator=(LpSolver&&) noexcept;

  /// Takes `model` as the loaded model and solves it. Reuses the previous
  /// optimal basis when the shape matches (see header comment); otherwise
  /// solves cold. Pass an rvalue to hand the model over without a copy.
  [[nodiscard]] LpSolution solve(LpModel model);

  /// Appends constraints to the loaded model. Only valid after a solve().
  /// Returns the number of rows accepted. Inequality rows are staged for
  /// dual-simplex reoptimisation; an equality row (or tableau mode) degrades
  /// the next resolve() to a cold solve of the extended model.
  std::size_t add_rows(const std::vector<Constraint>& rows);

  /// Reoptimises after add_rows(): dual simplex from the previous optimal
  /// basis when possible, cold solve of the extended model otherwise. The
  /// returned solution has warm_started == true iff the warm path succeeded.
  [[nodiscard]] LpSolution resolve();

  /// Removes constraints (by model index) from the loaded model. When the
  /// solver holds an optimal basis and every removed row carries a basic
  /// slack/artificial of its own — always true for rows strictly loose at
  /// the optimum, the relaxation-compaction case — the rows are excised in
  /// place: the basis, vertex and duals survive and the next resolve() stays
  /// warm. Returns true on that warm path; false means the basis was
  /// discarded and the next solve()/resolve() runs cold on the shrunken
  /// model. Only valid after a solve().
  bool delete_rows(const std::vector<std::size_t>& row_indices);

  /// True when a previous solve left an optimal basis to warm-start from.
  [[nodiscard]] bool has_basis() const;

  /// The warm identity the next solve() would start from (see LpWarmState):
  /// an imported identity not yet consumed by a solve(), else the current
  /// basis; nullopt when there is neither (nothing solved yet, tableau mode,
  /// or a prior failure).
  [[nodiscard]] std::optional<LpWarmState> export_warm_state() const;

  /// Stores `state` for the next solve(), which warm-starts from it when the
  /// model has its shape. An identity that does not fit that model (wrong
  /// lengths, a duplicate or out-of-range column, a basis that will not
  /// refactorise) makes that solve cold — a degraded start, never an error.
  /// Returns false, storing nothing, in tableau mode.
  bool import_warm_state(LpWarmState state);

  /// The currently loaded model, including rows appended via add_rows().
  [[nodiscard]] const LpModel& model() const { return model_; }

  [[nodiscard]] const SolverOptions& options() const { return options_; }
  [[nodiscard]] const LpSolverStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  class Core;

  /// Cold-solves the currently loaded model_ down the degradation ladder
  /// (revised, then the reference tableau; tableau mode starts at the
  /// tableau), updating stats. Does not attempt any warm start; the one
  /// entry of both solve() and resolve() into the cold path.
  [[nodiscard]] LpSolution solve_loaded_cold();

  SolverOptions options_;
  LpModel model_;
  std::unique_ptr<Core> core_;
  /// Set by import_warm_state(); consumed by the next solve().
  std::optional<LpWarmState> imported_;
  LpSolverStats stats_;
  bool incremental_ok_ = false;
};

}  // namespace oef::solver
