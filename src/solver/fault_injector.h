// Deterministic fault injection for the revised simplex.
//
// The degradation ladder (warm resolve → basis repair → cold revised →
// tableau → rescaled last-feasible) exists to survive numerical breakdown —
// but genuine breakdown only shows up at n ~ 1000, which makes the recovery
// code untestable at unit scale. A FaultInjector manufactures the breakdowns
// on demand, from a seeded stream so every run is reproducible:
//
//   * eta corruption — after a pivot, the newest product-form eta's pivot
//     element is scaled by `corruption_factor`, mimicking the accumulated
//     update drift that makes ftran/btran disagree with the true basis. The
//     solver's refactor-and-retry logic and the final is_feasible check are
//     what catch it.
//   * basis faults — at a refactorisation, one basic column is duplicated,
//     making the basis structurally singular. This drives the exact
//     deficiency-repair path (patching with unit columns) that real drift
//     exercises at scale.
//
// The injector is wired through SolverOptions::fault_injector (a non-owning
// pointer; the owner must outlive every solver using it) so simulations can
// share one seeded stream across all solver instances of a run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.h"

namespace oef::solver {

struct FaultInjectorConfig {
  std::uint64_t seed = 0x5eedULL;
  /// Per-pivot probability of corrupting the newest eta.
  double eta_corruption_rate = 0.0;
  /// Per-refactorisation probability of duplicating a basic column.
  double basis_fault_rate = 0.0;
  /// Multiplier applied to the corrupted eta's pivot element.
  double corruption_factor = 1e3;
};

struct FaultInjectorStats {
  /// Faults actually landed (a roll that finds nothing to corrupt does not count).
  std::size_t eta_corruptions = 0;
  std::size_t basis_faults = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorConfig config = {});

  /// True when this pivot should corrupt the newest eta. Advances the stream.
  [[nodiscard]] bool roll_eta_corruption();
  /// True when this refactorisation should duplicate a basic column.
  [[nodiscard]] bool roll_basis_fault();

  /// Record a fault that actually landed (the roll alone does not count:
  /// e.g. an eta roll against an empty eta file has nothing to corrupt).
  void note_eta_corruption() { ++stats_.eta_corruptions; }
  void note_basis_fault() { ++stats_.basis_faults; }

  [[nodiscard]] double corruption_factor() const { return config_.corruption_factor; }
  [[nodiscard]] const FaultInjectorStats& stats() const { return stats_; }
  [[nodiscard]] const FaultInjectorConfig& config() const { return config_; }

 private:
  FaultInjectorConfig config_;
  FaultInjectorStats stats_;
  common::Rng rng_;
};

}  // namespace oef::solver
