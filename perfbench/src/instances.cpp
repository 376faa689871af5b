#include "instances.h"

#include <algorithm>
#include <string>

#include "core/properties.h"
#include "harness.h"

namespace perfbench {

std::vector<double> random_row(oef::common::Rng& rng, std::size_t k) {
  std::vector<double> row(k);
  row[0] = 1.0;
  for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.05, 2.0);
  return row;
}

oef::core::SpeedupMatrix random_instance(oef::common::Rng& rng, std::size_t n,
                                         std::size_t k) {
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) row = random_row(rng, k);
  return oef::core::SpeedupMatrix(std::move(rows));
}

void AllocateTotals::add(const oef::core::AllocationResult& result, double wall) {
  if (result.ok()) ++ok;
  pivots += result.lp_iterations;
  cold_pivots += result.cold_lp_iterations;
  warm_pivots += result.warm_lp_iterations;
  lazy_rounds += result.lazy_rounds;
  envy_rows_added += result.envy_rows_added;
  envy_rows_dropped += result.envy_rows_dropped;
  warm_compactions += result.warm_compactions;
  oracle_seconds += result.oracle_seconds;
  wall_seconds += wall;
}

std::string check_allocation(const oef::core::SpeedupMatrix& speedups,
                             const oef::core::AllocationResult& result,
                             const std::vector<double>& capacities) {
  if (!result.served()) return "";
  if (!result.allocation.respects_capacity(capacities)) return "allocation exceeds capacity";
  if (!result.ok()) return "";
  const oef::core::EnvyReport envy =
      oef::core::check_envy_freeness(speedups, result.allocation);
  if (!envy.envy_free) {
    return "cooperative allocation not envy-free: worst violation " +
           std::to_string(envy.worst_violation);
  }
  return "";
}

void report_allocate_layers(const AllocateTotals& totals, std::size_t ops, Report& report) {
  const double per = 1.0 / static_cast<double>(std::max<std::size_t>(1, ops));
  const auto count = [&](const char* name, double value) { report.set(name, value * per); };
  count("solver.pivots", static_cast<double>(totals.pivots));
  count("solver.cold_pivots", static_cast<double>(totals.cold_pivots));
  count("solver.warm_pivots", static_cast<double>(totals.warm_pivots));
  count("solver.cold_solves", static_cast<double>(totals.solver.cold_solves));
  count("solver.warm_resolves", static_cast<double>(totals.solver.warm_resolves));
  count("solver.warm_start_hits", static_cast<double>(totals.solver.warm_start_hits));
  count("solver.seconds", totals.solver.solve_seconds);
  count("solver.basis_repairs", static_cast<double>(totals.solver.basis_repairs));
  count("solver.dense_fallbacks", static_cast<double>(totals.solver.dense_fallbacks));
  count("solver.tableau_fallbacks", static_cast<double>(totals.solver.tableau_fallbacks));
  report.set("solver.us_per_pivot",
             totals.pivots == 0
                 ? 0.0
                 : 1e6 * totals.solver.solve_seconds / static_cast<double>(totals.pivots));
  count("core.oracle_s", totals.oracle_seconds);
  count("core.unattributed_s",
        totals.wall_seconds - totals.solver.solve_seconds - totals.oracle_seconds);
  count("core.lazy_rounds", static_cast<double>(totals.lazy_rounds));
  count("core.envy_rows_added", static_cast<double>(totals.envy_rows_added));
  count("core.envy_rows_dropped", static_cast<double>(totals.envy_rows_dropped));
  count("core.warm_compactions", static_cast<double>(totals.warm_compactions));

  // The allocate wall, split into the parts the ledger attributes.
  const double wall = totals.wall_seconds;
  report.line("allocate_ms_per_op", 1e3 * wall * per, "ms", ops);
  report.line("  solver_share", totals.solver.solve_seconds / wall, "ratio", ops);
  report.line("  oracle_share", totals.oracle_seconds / wall, "ratio", ops);
  report.line("  unattributed_share",
              (wall - totals.solver.solve_seconds - totals.oracle_seconds) / wall, "ratio", ops);
}

}  // namespace perfbench
