// Seeded inputs and allocate() bookkeeping shared by the workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/allocation.h"
#include "core/oef.h"
#include "core/speedup_matrix.h"

namespace perfbench {

/// GPU devices per type of the synthetic k = 3 instances (bench_scaling's).
inline const std::vector<double> kSyntheticCapacities = {30.0, 40.0, 22.0};

/// One tenant's per-type throughput row: monotone, with random step ratios —
/// the generator family of bench_scaling, the shape the paper's profiler
/// produces for its GPU ladder.
[[nodiscard]] std::vector<double> random_row(oef::common::Rng& rng, std::size_t k);

/// An n x k instance of such rows.
[[nodiscard]] oef::core::SpeedupMatrix random_instance(oef::common::Rng& rng, std::size_t n,
                                                       std::size_t k);

/// The counters allocate() calls return, summed, plus the solver counters
/// (LpSolverStats deltas) those calls accrued.
struct AllocateTotals {
  std::size_t ok = 0;
  std::size_t pivots = 0;
  std::size_t cold_pivots = 0;
  std::size_t warm_pivots = 0;
  std::size_t lazy_rounds = 0;
  std::size_t envy_rows_added = 0;
  std::size_t envy_rows_dropped = 0;
  std::size_t warm_compactions = 0;
  double oracle_seconds = 0.0;
  double wall_seconds = 0.0;
  oef::solver::LpSolverStats solver;

  void add(const oef::core::AllocationResult& result, double wall);
};

/// Capacity fit and, for an optimal cooperative result, envy-freeness
/// within tolerance. Returns an empty string when both hold.
[[nodiscard]] std::string check_allocation(const oef::core::SpeedupMatrix& speedups,
                                           const oef::core::AllocationResult& result,
                                           const std::vector<double>& capacities);

class Report;

/// Sets the solver.* and core.* per-layer metrics from `totals`, per
/// operation (`ops` operations of the workload).
void report_allocate_layers(const AllocateTotals& totals, std::size_t ops, Report& report);

}  // namespace perfbench
