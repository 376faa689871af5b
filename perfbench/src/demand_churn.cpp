// demand_churn: one warm cooperative allocator with stable tenant ids
// (n = 40). Each step replaces three seeded tenants' speedup rows and calls
// allocate_weighted.
//
// This is the round-over-round path: warm dual resolve, envy-pool recycling
// and warm compaction; the cold path runs only in set-up. Per-step cost
// grows over a sequence (on this generator the last quarter of 40 steps costs
// about five times the first), so a sequence keeps a fixed 40 steps, enough
// for the growth to show. How soon and how steeply it sets in depends on the
// instance, so one run plays as many independently seeded sequences as fit in
// the time budget, each from a fresh set-up: the figures then average over
// instances and do not depend on how far a time-boxed run got. At n = 60 the
// growth is steeper but so uneven across instances that a run's figures
// spread 20-30% across seeds; README.md records that size as a baseline. The
// traced run also cold-solves every step's input on a fresh allocator, which
// gives the warm path's useful-work ratio and checks its objective. Steps are
// timed in CPU seconds (see cpu_seconds()); the wall figures are printed too.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/oef.h"
#include "harness.h"
#include "instances.h"

namespace perfbench {

namespace {

struct ChurnStep {
  std::vector<std::size_t> tenants;
  std::vector<std::vector<double>> rows;
};

struct ChurnInputs {
  std::vector<std::vector<double>> initial_rows;
  std::vector<ChurnStep> steps;
};

ChurnInputs make_inputs(std::uint64_t seed, std::size_t n, std::size_t k, std::size_t steps,
                        std::size_t replaced_per_step) {
  oef::common::Rng rng(seed);
  ChurnInputs inputs;
  for (std::size_t t = 0; t < n; ++t) inputs.initial_rows.push_back(random_row(rng, k));
  for (std::size_t s = 0; s < steps; ++s) {
    ChurnStep step;
    while (step.tenants.size() < replaced_per_step) {
      const auto t = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      bool taken = false;
      for (const std::size_t u : step.tenants) taken = taken || u == t;
      if (taken) continue;
      step.tenants.push_back(t);
      step.rows.push_back(random_row(rng, k));
    }
    inputs.steps.push_back(std::move(step));
  }
  return inputs;
}

/// The solver counters accrued between two snapshots of one allocator.
oef::solver::LpSolverStats accrued(const oef::solver::LpSolverStats& after,
                                   const oef::solver::LpSolverStats& before) {
  oef::solver::LpSolverStats delta;
  delta.cold_solves = after.cold_solves - before.cold_solves;
  delta.warm_resolves = after.warm_resolves - before.warm_resolves;
  delta.warm_start_hits = after.warm_start_hits - before.warm_start_hits;
  delta.dense_fallbacks = after.dense_fallbacks - before.dense_fallbacks;
  delta.tableau_fallbacks = after.tableau_fallbacks - before.tableau_fallbacks;
  delta.basis_repairs = after.basis_repairs - before.basis_repairs;
  delta.total_iterations = after.total_iterations - before.total_iterations;
  delta.solve_seconds = after.solve_seconds - before.solve_seconds;
  return delta;
}

}  // namespace

void run_demand_churn(const RunOptions& options, Tracer& tracer, Report& report) {
  const std::size_t n = options.tenants != 0 ? options.tenants : options.tiny ? 10 : 40;
  const std::size_t k = 3;
  const std::size_t steps_per_sequence = options.tiny ? 6 : 40;
  const std::size_t replaced_per_step = 3;
  const std::vector<double>& caps = kSyntheticCapacities;
  const std::vector<double> weights(n, 1.0);
  std::vector<std::size_t> ids(n);
  for (std::size_t t = 0; t < n; ++t) ids[t] = t;

  std::vector<double> setup_seconds;
  ChurnInputs inputs;
  oef::core::OefAllocator allocator = oef::core::make_cooperative_oef();
  // Set-up of a sequence: input generation plus the initial cold allocate of
  // a fresh warm allocator.
  std::uint64_t seed_state = options.seed;
  const auto set_up = [&] {
    const double start = now_seconds();
    {
      auto span = tracer.span("common", "generate_inputs");
      inputs = make_inputs(oef::common::splitmix64(seed_state), n, k, steps_per_sequence,
                           replaced_per_step);
    }
    oef::core::AllocationResult initial;
    {
      auto span = tracer.span("core", "allocate_initial");
      allocator = oef::core::make_cooperative_oef();
      initial = allocator.allocate_weighted(oef::core::SpeedupMatrix(inputs.initial_rows),
                                            weights, caps, ids);
      span.attribute("solver", "lp", allocator.solver_stats().solve_seconds);
      span.attribute("core", "oracle", initial.oracle_seconds);
    }
    setup_seconds.push_back(now_seconds() - start);
    report.check(initial.ok(), "demand_churn: initial cold allocate not optimal");
  };

  AllocateTotals warm;
  AllocateTotals cold;
  std::vector<double> latencies_ms;  // CPU time per step
  std::vector<double> wall_ms;
  double cpu_total = 0.0;
  std::vector<double> step_mean_ms(steps_per_sequence, 0.0);
  std::size_t sequences = 0;
  double efficiency_sum = 0.0;
  const double loop_start = now_seconds();
  // Stop when one more sequence of average length would overrun the budget.
  while (sequences == 0 || (now_seconds() - loop_start) * (sequences + 1) / sequences <=
                               options.seconds) {
    set_up();
    std::vector<std::vector<double>> rows = inputs.initial_rows;
    for (std::size_t s = 0; s < steps_per_sequence; ++s) {
      const ChurnStep& step = inputs.steps[s];
      oef::core::SpeedupMatrix speedups;
      {
        auto span = tracer.span("bench", "apply_step");
        for (std::size_t r = 0; r < step.tenants.size(); ++r) rows[step.tenants[r]] = step.rows[r];
        speedups = oef::core::SpeedupMatrix(rows);
      }
      oef::core::AllocationResult result;
      double wall = 0.0, cpu = 0.0;
      {
        auto span = tracer.span("core", "allocate_warm");
        const oef::solver::LpSolverStats before = allocator.solver_stats();
        const double start = now_seconds();
        const double cpu_start = cpu_seconds();
        result = allocator.allocate_weighted(speedups, weights, caps, ids);
        cpu = cpu_seconds() - cpu_start;
        wall = now_seconds() - start;
        const oef::solver::LpSolverStats delta = accrued(allocator.solver_stats(), before);
        warm.solver.merge(delta);
        span.attribute("solver", "lp", delta.solve_seconds);
        span.attribute("core", "oracle", result.oracle_seconds);
      }
      if (tracer.enabled()) {
        // The same input, cold, on a fresh allocator.
        oef::core::AllocationResult reference;
        auto span = tracer.span("core", "allocate_cold_reference");
        const oef::core::OefAllocator fresh = oef::core::make_cooperative_oef();
        const double start = now_seconds();
        reference = fresh.allocate_weighted(speedups, weights, caps, ids);
        const double cold_wall = now_seconds() - start;
        const oef::solver::LpSolverStats stats = fresh.solver_stats();
        cold.solver.merge(stats);
        cold.add(reference, cold_wall);
        span.attribute("solver", "lp", stats.solve_seconds);
        span.attribute("core", "oracle", reference.oracle_seconds);
        const double tolerance = 1e-6 * std::max(1.0, std::fabs(reference.total_efficiency));
        report.check(reference.ok() &&
                         std::fabs(result.total_efficiency - reference.total_efficiency) <=
                             tolerance,
                     "demand_churn: warm objective differs from a cold solve of step " +
                         std::to_string(s));
      }
      auto check_span = tracer.span("bench", "check");
      warm.add(result, wall);
      latencies_ms.push_back(cpu * 1e3);
      wall_ms.push_back(wall * 1e3);
      cpu_total += cpu;
      step_mean_ms[s] += cpu * 1e3;
      efficiency_sum += result.total_efficiency;
      report.check(result.ok(), "demand_churn: warm allocate returned " +
                                    std::string(oef::core::to_string(result.outcome)));
      const std::string problem = check_allocation(speedups, result, caps);
      report.check(problem.empty(), "demand_churn: " + problem);
    }
    ++sequences;
  }

  const std::size_t steps = latencies_ms.size();
  report.count_ops(steps, steps - warm.ok);
  report.set("setup_s", median(setup_seconds));
  report.set("ops_per_s", static_cast<double>(steps) / cpu_total);
  report.set("op_p50_ms", median(latencies_ms));
  report.set("op_tail_ms", pct(latencies_ms, 95.0));
  report.set("delivered_throughput", efficiency_sum / static_cast<double>(steps));
  report.set("ok_share", static_cast<double>(warm.ok) / static_cast<double>(steps));
  report_allocate_layers(warm, steps, report);
  if (tracer.enabled()) {
    report.set("core.warm_over_cold_pivots",
               static_cast<double>(warm.pivots) /
                   static_cast<double>(std::max<std::size_t>(1, cold.pivots)));
    report.set("core.warm_over_cold_s", warm.wall_seconds / cold.wall_seconds);
  }

  // Growth over a sequence: mean step latency of the first and last quarter.
  const std::size_t quarter = std::max<std::size_t>(1, steps_per_sequence / 4);
  double first = 0.0, last = 0.0;
  for (std::size_t s = 0; s < quarter; ++s) {
    first += step_mean_ms[s];
    last += step_mean_ms[steps_per_sequence - 1 - s];
  }
  const double per = 1.0 / static_cast<double>(quarter * sequences);
  report.line("setup_s", median(setup_seconds), "s", setup_seconds.size());
  report.line("reallocs_per_cpu_s", report.get("ops_per_s"), "1/s", steps);
  report.line("realloc_cpu_p50_ms", median(latencies_ms), "ms", steps);
  report.line("realloc_cpu_p95_ms", pct(latencies_ms, 95.0), "ms", steps);
  report.line("reallocs_per_s", static_cast<double>(steps) / warm.wall_seconds, "1/s", steps);
  report.line("realloc_p50_ms", median(wall_ms), "ms", steps);
  report.line("realloc_p95_ms", pct(wall_ms, 95.0), "ms", steps);
  report.line("first_quarter_step_cpu_ms", first * per, "ms", quarter * sequences);
  report.line("last_quarter_step_cpu_ms", last * per, "ms", quarter * sequences);
  report.line("warm_pivots_per_step", static_cast<double>(warm.pivots) / steps, "count", steps);
  if (tracer.enabled()) {
    report.line("cold_pivots_per_step", static_cast<double>(cold.pivots) / steps, "count",
                steps);
    report.line("warm_over_cold_pivots", report.get("core.warm_over_cold_pivots"), "ratio",
                steps);
    report.line("warm_over_cold_s", report.get("core.warm_over_cold_s"), "ratio", steps);
  }
  report.line("total_efficiency", report.get("delivered_throughput"), "gpu_eq", steps);
}

}  // namespace perfbench
