// cluster_sim: the round simulator with OEF-coop on a 3-type x 16-host x
// 4-GPU cluster (192 GPUs), 60 seeded tenants and a seeded 50-round event
// schedule of arrivals, departures, demand bursts and GPU/host failures; no
// solver fault injection.
//
// It is the only workload through sched, placement and sim, and it yields
// the paper's delivered-throughput outcome. Jobs are long enough to keep
// running through the horizon. Simulation cost depends strongly on the drawn
// trace and schedule (1-5 s for 300 rounds), so simulations are 50 rounds
// long and one run plays as many independently seeded ones as fit in the
// time budget (60-100), each from a fresh engine, then replays the first to
// check that the result is deterministic. Each simulation's run() is timed in
// CPU seconds (see cpu_seconds()); the engine's own per-round scheduler
// times are wall-clock and are printed, not gated.
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "harness.h"
#include "sim/engine.h"
#include "sim/events.h"
#include "workload/dl_models.h"
#include "workload/gpu_catalog.h"
#include "workload/trace.h"

namespace perfbench {

namespace {

struct SimSetup {
  oef::cluster::Cluster cluster;
  oef::workload::GpuCatalog catalog;
  oef::workload::ModelZoo zoo;
  std::unique_ptr<oef::sim::SimulationEngine> engine;
};

}  // namespace

void run_cluster_sim(const RunOptions& options, Tracer& tracer, Report& report) {
  const std::size_t tenants = options.tenants != 0 ? options.tenants : options.tiny ? 8 : 60;
  const std::size_t hosts_per_type = options.tiny ? 2 : 16;
  const std::size_t rounds = options.tiny ? 20 : 50;
  const std::vector<std::string> gpu_names = {"RTX3070", "RTX3080", "RTX3090"};
  std::vector<double> setup_seconds;
  // Set-up of one simulation: cluster, trace and event schedule generation,
  // and engine construction.
  const auto set_up = [&](std::uint64_t sim_seed) {
    const std::uint64_t trace_seed = oef::common::splitmix64(sim_seed);
    const std::uint64_t schedule_seed = oef::common::splitmix64(sim_seed);
    const double start = now_seconds();
    // Heap-allocated: the engine keeps references to the cluster, catalog
    // and zoo.
    auto setup = std::make_unique<SimSetup>();
    {
      auto span = tracer.span("cluster", "build");
      setup->cluster = oef::cluster::make_scale_cluster(3, hosts_per_type * 4);
      setup->catalog = oef::workload::make_paper_catalog();
    }
    oef::workload::Trace trace;
    {
      auto span = tracer.span("workload", "generate_trace");
      oef::workload::TraceOptions trace_options;
      trace_options.num_tenants = tenants;
      trace_options.mean_jobs_per_tenant = 4.0;
      trace_options.iterations_mu = 14.0;
      trace_options.iterations_sigma = 0.8;
      trace_options.seed = trace_seed;
      trace = oef::workload::generate_trace(setup->zoo, trace_options);
    }
    oef::sim::SimOptions sim_options;
    sim_options.scheduler = "OEF-coop";
    sim_options.max_rounds = rounds;
    {
      auto span = tracer.span("sim", "generate_events");
      oef::sim::EventScheduleOptions schedule;
      schedule.seed = schedule_seed;
      schedule.horizon_rounds = rounds;
      schedule.tenant_arrival_rate = 0.05;
      schedule.tenant_departure_rate = 0.05;
      schedule.burst_rate = 0.06;
      schedule.failure_rate = 0.10;
      schedule.drift_rate = 0.0;
      schedule.arrival_iterations_mu = 14.0;
      schedule.arrival_iterations_sigma = 0.8;
      sim_options.events =
          oef::sim::generate_event_schedule(setup->cluster, setup->zoo, trace, schedule);
    }
    {
      auto span = tracer.span("sim", "construct_engine");
      setup->engine = std::make_unique<oef::sim::SimulationEngine>(
          setup->cluster, setup->catalog, gpu_names, setup->zoo, std::move(trace),
          std::move(sim_options));
    }
    setup_seconds.push_back(now_seconds() - start);
    return setup;
  };

  // One simulation from a fresh engine; returns its result, run wall and
  // run CPU time.
  const auto simulate = [&](std::uint64_t sim_seed, double& wall, double& cpu) {
    const std::unique_ptr<SimSetup> setup = set_up(sim_seed);
    auto span = tracer.span("sim", "run");
    const double start = now_seconds();
    const double cpu_start = cpu_seconds();
    oef::sim::SimResult result = setup->engine->run();
    cpu = cpu_seconds() - cpu_start;
    wall = now_seconds() - start;
    const oef::sched::SchedulerTelemetry& t = result.scheduler_telemetry;
    span.attribute("sched", "solve",
                   result.total_solve_seconds - t.lp_solve_seconds - t.oracle_seconds);
    span.attribute("solver", "lp", t.lp_solve_seconds);
    span.attribute("core", "oracle", t.oracle_seconds);
    return result;
  };

  std::vector<std::uint64_t> sim_seeds;
  std::vector<double> round_solve_ms;
  std::vector<double> sim_cpu_ms_per_round;
  double cpu_total = 0.0;
  double first_actual = 0.0;
  double delivered_sum = 0.0;
  std::size_t simulated_rounds = 0, failed_rounds = 0;
  double wall_total = 0.0, solve_total = 0.0, lp_total = 0.0, oracle_total = 0.0;
  oef::sched::SchedulerTelemetry telemetry_total;
  std::size_t cross_type = 0, cross_host = 0, migrations = 0, stragglers = 0;
  std::uint64_t seed_state = options.seed;
  const double loop_start = now_seconds();
  // Stop when one more simulation of average length would overrun the budget.
  while (sim_seeds.empty() ||
         (now_seconds() - loop_start) * static_cast<double>(sim_seeds.size() + 1) /
                 static_cast<double>(sim_seeds.size()) <=
             options.seconds) {
    sim_seeds.push_back(oef::common::splitmix64(seed_state));
    double wall = 0.0, cpu = 0.0;
    const oef::sim::SimResult result = simulate(sim_seeds.back(), wall, cpu);
    auto check_span = tracer.span("bench", "check");
    const std::size_t n_rounds = result.rounds.size();
    report.check(n_rounds == rounds, "cluster_sim: simulated " + std::to_string(n_rounds) +
                                         " rounds, expected " + std::to_string(rounds));
    if (n_rounds == 0) break;
    bool fits = true;
    for (const oef::sim::RoundRecord& round : result.rounds) {
      const double surviving =
          std::accumulate(round.capacities.begin(), round.capacities.end(), 0.0);
      std::size_t granted = 0;
      for (const oef::sim::TenantRound& tr : round.tenants) granted += tr.devices;
      fits = fits && static_cast<double>(granted) <= surviving + 1e-9;
      round_solve_ms.push_back(round.solve_seconds * 1e3);
      cross_host += round.cross_host_jobs;
    }
    report.check(fits, "cluster_sim: a round granted more devices than survive");
    report.check(result.rounds.back().running_jobs > 0,
                 "cluster_sim: no job running in the last round (trace too light)");
    if (sim_seeds.size() == 1) first_actual = result.total_actual;
    simulated_rounds += n_rounds;
    failed_rounds += result.degraded_rounds + result.fallback_rounds;
    delivered_sum += result.mean_actual_per_round();
    wall_total += wall;
    cpu_total += cpu;
    sim_cpu_ms_per_round.push_back(cpu * 1e3 / static_cast<double>(n_rounds));
    solve_total += result.total_solve_seconds;
    const oef::sched::SchedulerTelemetry& t = result.scheduler_telemetry;
    lp_total += t.lp_solve_seconds;
    oracle_total += t.oracle_seconds;
    telemetry_total.lp_iterations += t.lp_iterations;
    telemetry_total.lp_cold_solves += t.lp_cold_solves;
    telemetry_total.lp_warm_resolves += t.lp_warm_resolves;
    telemetry_total.lp_warm_start_hits += t.lp_warm_start_hits;
    telemetry_total.lp_basis_repairs += t.lp_basis_repairs;
    telemetry_total.lp_dense_fallbacks += t.lp_dense_fallbacks;
    telemetry_total.lp_tableau_fallbacks += t.lp_tableau_fallbacks;
    telemetry_total.degraded_rounds += result.degraded_rounds;
    telemetry_total.fallback_rounds += result.fallback_rounds;
    cross_type += result.total_cross_type_jobs;
    migrations += result.total_migrations;
    stragglers += result.total_straggler_workers;
  }
  {
    double wall = 0.0, cpu = 0.0;
    const oef::sim::SimResult replay = simulate(sim_seeds.front(), wall, cpu);
    report.check(replay.total_actual == first_actual,
                 "cluster_sim: replaying a seed delivered a different throughput");
  }
  const double delivered = delivered_sum / static_cast<double>(sim_seeds.size());

  report.count_ops(simulated_rounds, failed_rounds);
  report.set("setup_s", median(setup_seconds));
  report.set("ops_per_s", static_cast<double>(simulated_rounds) / cpu_total);
  report.set("op_p50_ms", median(sim_cpu_ms_per_round));
  report.set("op_tail_ms", pct(sim_cpu_ms_per_round, 90.0));
  report.set("delivered_throughput", delivered);
  report.set("ok_share", 1.0 - static_cast<double>(failed_rounds) /
                                   static_cast<double>(std::max<std::size_t>(1, simulated_rounds)));

  const double per = 1.0 / static_cast<double>(std::max<std::size_t>(1, simulated_rounds));
  report.set("solver.pivots", static_cast<double>(telemetry_total.lp_iterations) * per);
  report.set("solver.cold_solves", static_cast<double>(telemetry_total.lp_cold_solves) * per);
  report.set("solver.warm_resolves",
             static_cast<double>(telemetry_total.lp_warm_resolves) * per);
  report.set("solver.warm_start_hits",
             static_cast<double>(telemetry_total.lp_warm_start_hits) * per);
  report.set("solver.seconds", lp_total * per);
  report.set("solver.us_per_pivot",
             telemetry_total.lp_iterations == 0
                 ? 0.0
                 : 1e6 * lp_total / static_cast<double>(telemetry_total.lp_iterations));
  report.set("solver.basis_repairs", static_cast<double>(telemetry_total.lp_basis_repairs) * per);
  report.set("solver.dense_fallbacks",
             static_cast<double>(telemetry_total.lp_dense_fallbacks) * per);
  report.set("solver.tableau_fallbacks",
             static_cast<double>(telemetry_total.lp_tableau_fallbacks) * per);
  report.set("core.oracle_s", oracle_total * per);
  report.set("sched.solve_s", solve_total * per);
  report.set("sched.degraded_rounds", static_cast<double>(telemetry_total.degraded_rounds) * per);
  report.set("sched.fallback_rounds", static_cast<double>(telemetry_total.fallback_rounds) * per);
  report.set("sim.non_sched_s", (wall_total - solve_total) * per);
  report.set("placement.cross_type_jobs", static_cast<double>(cross_type) * per);
  report.set("placement.cross_host_jobs", static_cast<double>(cross_host) * per);
  report.set("placement.migrations", static_cast<double>(migrations) * per);
  report.set("placement.straggler_workers", static_cast<double>(stragglers) * per);

  report.line("setup_s", median(setup_seconds), "s", setup_seconds.size());
  report.line("sim_rounds_per_cpu_s", report.get("ops_per_s"), "1/s", simulated_rounds);
  report.line("sim_cpu_ms_per_round_p50", median(sim_cpu_ms_per_round), "ms",
              sim_cpu_ms_per_round.size());
  report.line("sim_cpu_ms_per_round_p90", pct(sim_cpu_ms_per_round, 90.0), "ms",
              sim_cpu_ms_per_round.size());
  report.line("sim_rounds_per_s", static_cast<double>(simulated_rounds) / wall_total, "1/s",
              simulated_rounds);
  report.line("round_solve_p50_ms", median(round_solve_ms), "ms", round_solve_ms.size());
  report.line("round_solve_p99_ms", pct(round_solve_ms, 99.0), "ms", round_solve_ms.size());
  report.line("delivered_throughput", delivered, "gpu_eq", sim_seeds.size());
  report.line("scheduler_share", solve_total / wall_total, "ratio", sim_seeds.size());
}

}  // namespace perfbench
