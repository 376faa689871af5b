// The OEF allocators (§4.2) — the paper's primary contribution.
//
// Non-cooperative OEF (Eq. 9) maximises overall efficiency subject to every
// (virtual) user attaining identical normalised throughput, which yields
// strategy-proofness (Thm 5.4). Cooperative OEF (Eq. 10) maximises overall
// efficiency subject to envy-freeness rows, which yields envy-freeness,
// sharing-incentive and optimal efficiency simultaneously (Thm 5.1). Both are
// Pareto-efficient (Thm 5.3) and assign only adjacent GPU types (Thm 5.2).
//
// Weighted OEF and multi-job-type support (§4.2.3–4.2.4) are expressed via
// per-row multiplicities: a row with multiplicity r behaves exactly like r
// replicated rows of the paper's construction (allocations of identical
// replicas can be symmetrised, so the replicas merge into one row whose
// efficiency is compared at 1/r scale). This supports fractional weights
// directly, where literal replication would need rationalisation.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/serial.h"
#include "core/allocation.h"
#include "core/speedup_matrix.h"
#include "solver/lazy.h"
#include "solver/lp_solver.h"
#include "solver/simplex.h"

namespace oef::core {

struct OefOptions {
  solver::SolverOptions solver;
  /// Cooperative mode: generate envy rows lazily (true) or all n(n-1)
  /// eagerly (false). Lazy is the default and is required at large n.
  bool lazy_envy_constraints = true;
  std::size_t max_lazy_rounds = 200;
  /// Violation threshold for the envy separation oracle.
  double envy_tolerance = 1e-7;
  /// Cooperative lazy mode: most-violated envy rows the separation oracle
  /// emits per user per round. 1 (the classic most-violated-row policy)
  /// measures fastest across the n = 40..300 sweep once the relaxation is
  /// seeded with the adjacent-pair rows; larger values trade rounds for row
  /// growth, which the O(m^2) basis operations punish.
  std::size_t max_envy_rows_per_user = 1;
  /// Cooperative lazy mode: relaxation-compaction ceiling. Once the working
  /// LP holds more than this many envy rows, rows slack at the current
  /// optimum are dropped and the shrunken model re-solved. This is a safety
  /// ceiling against pathological row growth, not an aggressive limit — a
  /// tight budget makes the lazy loop thrash (dropped rows are genuinely
  /// re-violated and must be rediscovered). 0 = automatic (max(16n, 512));
  /// SIZE_MAX disables compaction entirely.
  std::size_t max_envy_rows_total = 0;
  /// Worker threads for the O(n^2 k) envy separation oracle. 0 = automatic
  /// (hardware concurrency, capped at 8, engaged only at n >= 64); 1 forces
  /// a serial scan. The generated rows are identical for every thread count
  /// (per-user scans are independent and merged in user order).
  std::size_t oracle_threads = 0;
  /// Non-cooperative mode: use the O(nk log) water-filling fast path when the
  /// instance is totally ordered, falling back to the LP otherwise.
  bool use_fast_path = true;
  /// Cooperative mode: seed the next allocate() call's relaxation with the
  /// envy rows that were binding at the previous optimum (same user count),
  /// so round-over-round calls in the simulator typically converge in one
  /// warm-started lazy round.
  bool recycle_envy_rows = true;
  /// Cooperative lazy mode, cold calls only: seed the relaxation with both
  /// envy rows of every user pair within distance 2 of each other in the
  /// dominance order (total scaled speedup). The optimum's binding set
  /// concentrates on neighbouring users (the paper's adjacency structure),
  /// so this skips most lazy rounds that would otherwise rediscover those
  /// rows one violation at a time (n = 300: 46 rounds / 10.4k rows down to
  /// 30 rounds / 6.6k rows, and a cold sweep that completes in minutes).
  bool seed_adjacent_envy_rows = true;
  /// Monotonic-clock budget for one allocate() call, in seconds; 0 disables
  /// it. Cooperative lazy mode: when the deadline expires mid-loop the call
  /// returns the last relaxation optimum (capacity-feasible, envy rows
  /// approximate) as a *degraded* result instead of running to convergence —
  /// the anytime contract a per-round scheduler needs.
  double solve_deadline_seconds = 0.0;
  /// Absolute monotonic deadline for one allocate() call (none() disables).
  /// Unlike solve_deadline_seconds — which anchors at allocate() entry — this
  /// instant is fixed by the caller, so the daemon can anchor a request's
  /// budget at arrival and let queueing/coalescing delay draw it down. When
  /// both are set, the earlier instant wins.
  common::Deadline deadline = common::Deadline::none();
};

/// Outcome of one allocate() call, one level above the LP's SolveStatus:
/// whether the caller got an allocation it can serve, and of what quality.
enum class AllocationStatus {
  /// Default-constructed result; allocate() never ran (the old silent
  /// kIterationLimit default made this state indistinguishable from a real
  /// iteration-limit failure).
  kNotSolved,
  /// Converged, envy-free (cooperative) / equal-efficiency (non-cooperative)
  /// optimum.
  kOptimal,
  /// A capacity-feasible allocation was produced, but degraded: the lazy envy
  /// loop hit its round cap or the solve deadline before converging, so a few
  /// envy rows may be violated. Servable, and flagged.
  kDegraded,
  /// No usable allocation (LP infeasible/unbounded, or every rung of the
  /// degradation ladder failed). The allocation field is empty.
  kFailed,
};

[[nodiscard]] const char* to_string(AllocationStatus status);

struct AllocationResult {
  Allocation allocation;
  /// Servability of this result (see AllocationStatus). Starts at kNotSolved
  /// so an unpopulated result can never masquerade as a solver failure.
  AllocationStatus outcome = AllocationStatus::kNotSolved;
  /// Final LP solve status — diagnostic detail under `outcome`.
  solver::SolveStatus status = solver::SolveStatus::kIterationLimit;
  /// Σ w_l · x_l at the optimum.
  double total_efficiency = 0.0;
  /// Simplex pivots across all LP solves of this call.
  std::size_t lp_iterations = 0;
  /// Cooperative-lazy statistics (zero otherwise).
  std::size_t lazy_rounds = 0;
  std::size_t envy_rows_added = 0;
  /// Envy rows dropped again by relaxation compaction.
  std::size_t envy_rows_dropped = 0;
  /// Relaxation compactions, and how many kept the basis warm (rows excised
  /// in place instead of a cold reload of the shrunken model).
  std::size_t compactions = 0;
  std::size_t warm_compactions = 0;
  /// Lazy rounds >= 2 completed by a warm dual-simplex resolve, and the
  /// pivot split between cold solves and warm resolves.
  std::size_t warm_rounds = 0;
  std::size_t cold_lp_iterations = 0;
  std::size_t warm_lp_iterations = 0;
  /// Wall-clock seconds spent inside the LP solver.
  double solve_seconds = 0.0;
  /// Wall-clock seconds spent inside the envy separation oracle.
  double oracle_seconds = 0.0;
  /// True when the fast path produced the result (no LP solved).
  bool used_fast_path = false;
  /// Non-cooperative mode: the fast path was enabled but the instance was not
  /// totally ordered (crossing rows), so the LP solved it instead. Previously
  /// this degradation was silent.
  bool fast_path_fallback = false;
  /// Cooperative lazy mode: OefOptions::solve_deadline_seconds expired and
  /// the last relaxation optimum was returned (outcome == kDegraded).
  bool deadline_expired = false;
  /// Degradation-ladder counters for this call (deltas of the solver's
  /// cumulative stats): tableau fallbacks and deficient basis positions
  /// repaired.
  std::size_t tableau_fallbacks = 0;
  std::size_t basis_repairs = 0;

  /// True only for a converged optimum.
  [[nodiscard]] bool ok() const { return outcome == AllocationStatus::kOptimal; }
  /// True when the allocation can be handed out (optimal or degraded).
  [[nodiscard]] bool served() const {
    return outcome == AllocationStatus::kOptimal || outcome == AllocationStatus::kDegraded;
  }
};

/// OEF allocator. allocate() is logically const but reuses internal solver
/// state (the previous optimal basis and the recycled envy-row pool) across
/// calls to warm-start round-over-round solves, so concurrent allocate()
/// calls on one instance require external synchronisation.
class OefAllocator {
 public:
  enum class Mode { kNonCooperative, kCooperative };

  explicit OefAllocator(Mode mode, OefOptions options = {});

  [[nodiscard]] Mode mode() const { return mode_; }

  /// Per-call absolute deadline (see OefOptions::deadline). A serving layer
  /// sets this before each allocate() without reconstructing the allocator —
  /// reconstruction would discard the warm basis and envy pool.
  void set_deadline(common::Deadline deadline) { options_.deadline = deadline; }

  /// Cumulative LP-solver counters (cold solves, warm resolves, basis-reuse
  /// hits, pivots, seconds) across all allocate() calls on this instance.
  [[nodiscard]] solver::LpSolverStats solver_stats() const;

  /// Cumulative wall-clock seconds spent inside the envy separation oracle
  /// across all allocate() calls on this instance.
  [[nodiscard]] double oracle_seconds() const { return oracle_seconds_total_; }

  /// Checkpoint hook (PR 9): serializes the allocator's warm identity — the
  /// recycled envy pool and each persistent solver's LpWarmState — so a fresh
  /// process can resume churn on warm paths. Counters (solver stats, oracle
  /// seconds) are telemetry, not warm state, and are not saved.
  void save_warm_state(common::SerialWriter& out) const;

  /// Restores what save_warm_state() wrote. Returns true when at least one
  /// solver came back warm; false means the next allocate() runs cold (a
  /// degraded restart, not an error). Throws common::CheckError with
  /// kCorruptData on a malformed record and kInvalidArgument when the
  /// checkpoint was taken under the other Mode.
  bool load_warm_state(common::SerialReader& in);

  /// Unweighted allocation: every user has multiplicity 1.
  [[nodiscard]] AllocationResult allocate(const SpeedupMatrix& speedups,
                                          const std::vector<double>& capacities) const;

  /// Weighted / multi-job-type allocation: row v behaves like
  /// multiplicities[v] replicated users (§4.2.3). Multiplicities must be > 0.
  ///
  /// `user_ids`, when non-empty, gives a stable identity per row (size n).
  /// The recycled envy-row pool is then keyed by identity instead of row
  /// index, so it survives churn: when tenants arrive or depart between
  /// calls, rows of surviving pairs are still recycled instead of the whole
  /// pool being discarded because n changed. Empty (the default) keeps the
  /// legacy behaviour: identity == row index, pool dropped on any n change.
  [[nodiscard]] AllocationResult allocate_weighted(
      const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
      const std::vector<double>& capacities,
      const std::vector<std::size_t>& user_ids = {}) const;

 private:
  [[nodiscard]] AllocationResult solve_non_cooperative(
      const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
      const std::vector<double>& capacities) const;
  [[nodiscard]] AllocationResult solve_cooperative(
      const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
      const std::vector<double>& capacities,
      const std::vector<std::size_t>& user_ids) const;

  Mode mode_;
  OefOptions options_;
  /// Persistent solvers: kept alive across allocate() calls so the lazy envy
  /// loop dual-simplex-resolves within a call and same-shaped models across
  /// calls reuse the previous optimal basis (see solver/lp_solver.h).
  mutable solver::LpSolver coop_solver_;
  mutable solver::LpSolver noncoop_solver_;
  /// One envy row (envier envies envied) of the previous cooperative call's
  /// final relaxation, recycled into the next call's initial relaxation.
  /// Stored as stable IDs: the caller's user_ids when provided, row indices
  /// otherwise. `binding` marks rows tight at the previous optimum: when the
  /// next call has the same user set the whole pool is reseeded in order
  /// (shape match → basis reuse), but across a user-set change — where the
  /// shape can't match and the solve is cold regardless — only the binding
  /// rows are worth the larger initial relaxation they buy.
  struct PooledEnvyRow {
    std::size_t envier = 0;
    std::size_t envied = 0;
    bool binding = false;
  };
  mutable std::vector<PooledEnvyRow> envy_pool_;
  mutable std::size_t envy_pool_users_ = 0;
  mutable double oracle_seconds_total_ = 0.0;
};

/// Convenience factories matching the paper's terminology.
[[nodiscard]] OefAllocator make_non_cooperative_oef(OefOptions options = {});
[[nodiscard]] OefAllocator make_cooperative_oef(OefOptions options = {});

/// Combinatorial fast path for non-cooperative OEF on totally ordered
/// instances (every user's row elementwise-dominates the previous user's
/// after sorting): bisects the common efficiency level E and fills users in
/// dominance order, slowest types first (Lemma 3.1). Returns nullopt when the
/// instance is not totally ordered. Exposed for testing; OefAllocator uses it
/// when options.use_fast_path is set.
[[nodiscard]] std::optional<Allocation> non_cooperative_fast_path(
    const SpeedupMatrix& speedups, const std::vector<double>& multiplicities,
    const std::vector<double>& capacities, double tolerance = 1e-10);

}  // namespace oef::core
