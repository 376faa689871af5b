// Common interface for all GPU-share schedulers (OEF and the baselines it is
// evaluated against). A scheduler maps a speedup matrix plus per-type
// capacities to a (fractional) allocation matrix; integralisation and device
// placement happen downstream in src/placement.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/speedup_matrix.h"
#include "solver/lp_solver.h"

namespace oef::sched {

/// LP-solver counters accumulated by a scheduler across allocate() calls;
/// zero for closed-form schedulers that never solve an LP. The simulator
/// copies these into SimResult so overhead benches can report how much of
/// each round went to the optimiser and how often warm starts hit.
struct SchedulerTelemetry {
  std::size_t lp_cold_solves = 0;
  std::size_t lp_warm_resolves = 0;
  std::size_t lp_warm_start_hits = 0;
  /// Always 0: the dense-basis rung is gone; kept for perfbench/, which reads it.
  std::size_t lp_dense_fallbacks = 0;
  /// Degradation-ladder rungs taken inside the solver: tableau reference
  /// fallbacks and singular-basis positions repaired during refactorisation.
  std::size_t lp_tableau_fallbacks = 0;
  std::size_t lp_basis_repairs = 0;
  std::size_t lp_iterations = 0;
  double lp_solve_seconds = 0.0;
  /// Wall-clock seconds inside the envy separation oracle (cooperative OEF;
  /// zero for schedulers without one). Disjoint from lp_solve_seconds, so
  /// the two split a round's scheduling time between pricing and separation.
  double oracle_seconds = 0.0;
  /// Scheduler-level degradation (OEF under the robustness ladder; zero for
  /// baselines): rounds served from a non-converged (degraded) LP result,
  /// rounds served from the last-feasible fallback because the allocator
  /// failed outright, allocate() calls stopped by the solve deadline, and
  /// non-cooperative fast-path calls that had to fall back to the LP.
  std::size_t degraded_rounds = 0;
  std::size_t fallback_rounds = 0;
  std::size_t deadline_expirations = 0;
  std::size_t fastpath_lp_fallbacks = 0;

  void merge(const SchedulerTelemetry& other) {
    lp_cold_solves += other.lp_cold_solves;
    lp_warm_resolves += other.lp_warm_resolves;
    lp_warm_start_hits += other.lp_warm_start_hits;
    lp_tableau_fallbacks += other.lp_tableau_fallbacks;
    lp_basis_repairs += other.lp_basis_repairs;
    lp_iterations += other.lp_iterations;
    lp_solve_seconds += other.lp_solve_seconds;
    oracle_seconds += other.oracle_seconds;
    degraded_rounds += other.degraded_rounds;
    fallback_rounds += other.fallback_rounds;
    deadline_expirations += other.deadline_expirations;
    fastpath_lp_fallbacks += other.fastpath_lp_fallbacks;
  }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Human-readable scheduler name (used in bench output).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Computes the per-user fractional device shares. `weights` scales users'
  /// entitlements (§4.2.3); pass an empty vector for equal weights.
  /// Logically const, but LP-backed schedulers keep solver state warm across
  /// calls (previous optimal basis, recycled rows), so calls on one instance
  /// must be externally serialised.
  [[nodiscard]] virtual core::Allocation allocate(
      const core::SpeedupMatrix& speedups, const std::vector<double>& capacities,
      const std::vector<double>& weights = {}) const = 0;

  /// Same, with a stable identity per user row (dynamic-cluster mode). LP
  /// schedulers whose warm state is keyed by identity (OEF's recycled envy
  /// pool) override this; the default ignores the ids and dispatches to the
  /// three-argument overload, so closed-form baselines need no change.
  [[nodiscard]] virtual core::Allocation allocate(
      const core::SpeedupMatrix& speedups, const std::vector<double>& capacities,
      const std::vector<double>& weights,
      const std::vector<std::size_t>& /*user_ids*/) const {
    return allocate(speedups, capacities, weights);
  }

  /// Cumulative optimiser counters; default for closed-form schedulers.
  [[nodiscard]] virtual SchedulerTelemetry telemetry() const { return {}; }
};

/// Normalises the weight vector: empty -> all ones; checks positivity.
[[nodiscard]] std::vector<double> effective_weights(std::size_t num_users,
                                                    const std::vector<double>& weights);

/// Maps LpSolver counters onto the scheduler telemetry shape.
[[nodiscard]] inline SchedulerTelemetry to_telemetry(const solver::LpSolverStats& stats) {
  SchedulerTelemetry t;
  t.lp_cold_solves = stats.cold_solves;
  t.lp_warm_resolves = stats.warm_resolves;
  t.lp_warm_start_hits = stats.warm_start_hits;
  t.lp_tableau_fallbacks = stats.tableau_fallbacks;
  t.lp_basis_repairs = stats.basis_repairs;
  t.lp_iterations = stats.total_iterations;
  t.lp_solve_seconds = stats.solve_seconds;
  return t;
}

}  // namespace oef::sched
