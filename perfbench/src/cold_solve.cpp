// cold_solve: cooperative OEF on a fresh OefAllocator for every call, over
// seeded synthetic heterogeneous instances (k = 3, n = 200).
//
// Nearly all of its time is the cold two-phase solve, the LU factorisation,
// pricing, the envy oracle and the lazy loop; warm resolve, the service and
// the simulator are bypassed. Solves are timed in CPU seconds (see
// cpu_seconds()); the wall figures are printed too. Every call solves a
// distinct instance, and the run stops before a solve would end past the time
// budget. At n = 300 a solve takes about 4 s, too few per run for a median
// that holds across seeds; README.md records that size as a baseline.
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/oef.h"
#include "harness.h"
#include "instances.h"

namespace perfbench {

void run_cold_solve(const RunOptions& options, Tracer& tracer, Report& report) {
  const std::size_t n = options.tenants != 0 ? options.tenants : options.tiny ? 24 : 200;
  const std::size_t k = 3;
  const std::size_t pool_size = 64;
  const std::size_t setup_reps = 21;
  const std::vector<double>& caps = kSyntheticCapacities;
  const std::vector<double> weights(n, 1.0);

  // Set-up: input generation, repeated; the median is reported.
  std::vector<oef::core::SpeedupMatrix> pool;
  std::vector<double> setup_seconds;
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    auto span = tracer.span("common", "generate_instances");
    const double start = now_seconds();
    oef::common::Rng rng(options.seed);
    pool.clear();
    for (std::size_t i = 0; i < pool_size; ++i) pool.push_back(random_instance(rng, n, k));
    setup_seconds.push_back(now_seconds() - start);
  }

  AllocateTotals totals;
  std::vector<double> latencies_ms;  // CPU time per solve
  std::vector<double> wall_ms;
  double cpu_total = 0.0;
  double efficiency_sum = 0.0;
  const double loop_start = now_seconds();
  // Stop when one more solve of average length would overrun the budget.
  for (std::size_t i = 0;; ++i) {
    const double elapsed = now_seconds() - loop_start;
    if (i > 0 && elapsed * static_cast<double>(i + 1) / static_cast<double>(i) > options.seconds) {
      break;
    }
    const oef::core::SpeedupMatrix& speedups = pool[i % pool_size];
    oef::core::AllocationResult result;
    double wall = 0.0, cpu = 0.0;
    {
      auto span = tracer.span("core", "allocate_cold");
      const oef::core::OefAllocator allocator = oef::core::make_cooperative_oef();
      const double start = now_seconds();
      const double cpu_start = cpu_seconds();
      result = allocator.allocate_weighted(speedups, weights, caps);
      cpu = cpu_seconds() - cpu_start;
      wall = now_seconds() - start;
      const oef::solver::LpSolverStats stats = allocator.solver_stats();
      totals.solver.merge(stats);
      span.attribute("solver", "lp", stats.solve_seconds);
      span.attribute("core", "oracle", result.oracle_seconds);
    }
    auto check_span = tracer.span("bench", "check");
    totals.add(result, wall);
    latencies_ms.push_back(cpu * 1e3);
    wall_ms.push_back(wall * 1e3);
    cpu_total += cpu;
    efficiency_sum += result.total_efficiency;
    report.check(result.ok(), "cold_solve: allocate returned " +
                                  std::string(oef::core::to_string(result.outcome)));
    const std::string problem = check_allocation(speedups, result, caps);
    report.check(problem.empty(), "cold_solve: " + problem);
  }

  const std::size_t solves = latencies_ms.size();
  report.count_ops(solves, solves - totals.ok);
  report.set("setup_s", median(setup_seconds));
  report.set("ops_per_s", static_cast<double>(solves) / cpu_total);
  report.set("op_p50_ms", median(latencies_ms));
  report.set("op_tail_ms", pct(latencies_ms, 90.0));
  report.set("delivered_throughput", efficiency_sum / static_cast<double>(solves));
  report.set("ok_share", static_cast<double>(totals.ok) / static_cast<double>(solves));
  report_allocate_layers(totals, solves, report);

  report.line("setup_s", median(setup_seconds), "s", setup_seconds.size());
  report.line("cold_solve_cpu_s", median(latencies_ms) / 1e3, "s", solves);
  report.line("cold_solve_cpu_p90_s", pct(latencies_ms, 90.0) / 1e3, "s", solves);
  report.line("cold_solves_per_cpu_s", report.get("ops_per_s"), "1/s", solves);
  report.line("cold_solve_s", median(wall_ms) / 1e3, "s", solves);
  report.line("cold_solve_p90_s", pct(wall_ms, 90.0) / 1e3, "s", solves);
  report.line("cold_solves_per_s", static_cast<double>(solves) / totals.wall_seconds, "1/s",
              solves);
  report.line("total_efficiency", report.get("delivered_throughput"), "gpu_eq", solves);
  report.line("pivots_per_solve", static_cast<double>(totals.pivots) / solves, "count",
              solves);
}

}  // namespace perfbench
