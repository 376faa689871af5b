// Robustness benchmark: the dynamic-cluster engine under a failure-heavy
// seeded event schedule (tenant churn, demand bursts, GPU/host failures,
// mix drift) with solver fault injection (corrupted eta updates, forced
// basis deficiencies) layered on top.
//
// Two arms run the SAME trace and event schedule:
//   * warm — the shipped configuration: one persistent scheduler whose
//     LP basis, factorisation and recycled envy-row pool ride through the
//     churn (stable-ID warm starts),
//   * cold — the scheduler is torn down and rebuilt every round, so every
//     solve is a cold two-phase solve with adjacent envy seeding.
//
// The acceptance contract of the robustness work: the failure-heavy run
// completes with zero process aborts, every round is served (degraded
// rounds are flagged, never dropped), and the warm arm is >= 5x cheaper in
// simplex pivots than cold-solving every event.
//
// Output: a table plus machine-readable BENCH_churn.json (one record per
// arm; schema in docs/BENCHMARKS.md).
//
// Usage: bench_churn [--rounds=N] [--output=PATH]
// Exit code: number of failed checks (0 = healthy).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "sim/engine.h"
#include "sim/events.h"
#include "workload/trace.h"

namespace {

using namespace oef;

struct ArmRecord {
  std::string arm;
  std::size_t rounds = 0;
  std::size_t events_applied = 0;
  std::size_t max_devices_down = 0;
  bool every_round_fits = true;
  std::size_t degraded_rounds = 0;
  std::size_t fallback_rounds = 0;
  std::size_t deadline_expirations = 0;
  std::size_t fastpath_lp_fallbacks = 0;
  std::size_t lp_iterations = 0;
  std::size_t lp_cold_solves = 0;
  std::size_t lp_warm_resolves = 0;
  std::size_t lp_warm_start_hits = 0;
  std::size_t lp_tableau_fallbacks = 0;
  std::size_t lp_basis_repairs = 0;
  double solve_seconds = 0.0;
  double wall_seconds = 0.0;
  double total_actual = 0.0;
};

ArmRecord run_arm(const char* name, const sim::SimOptions& options,
                  const cluster::Cluster& cluster, const workload::GpuCatalog& catalog,
                  const std::vector<std::string>& gpu_names,
                  const workload::ModelZoo& zoo, const workload::Trace& trace) {
  const auto start = std::chrono::steady_clock::now();
  const sim::SimResult result =
      sim::run_simulation(cluster, catalog, gpu_names, zoo, trace, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  ArmRecord record;
  record.arm = name;
  record.rounds = result.rounds.size();
  for (const sim::RoundRecord& round : result.rounds) {
    record.events_applied += round.events_applied;
    record.max_devices_down = std::max(record.max_devices_down, round.devices_down);
    const double surviving =
        std::accumulate(round.capacities.begin(), round.capacities.end(), 0.0);
    std::size_t granted = 0;
    for (const sim::TenantRound& tr : round.tenants) granted += tr.devices;
    if (static_cast<double>(granted) > surviving + 1e-9) record.every_round_fits = false;
  }
  record.degraded_rounds = result.degraded_rounds;
  record.fallback_rounds = result.fallback_rounds;
  const sched::SchedulerTelemetry& t = result.scheduler_telemetry;
  record.deadline_expirations = t.deadline_expirations;
  record.fastpath_lp_fallbacks = t.fastpath_lp_fallbacks;
  record.lp_iterations = t.lp_iterations;
  record.lp_cold_solves = t.lp_cold_solves;
  record.lp_warm_resolves = t.lp_warm_resolves;
  record.lp_warm_start_hits = t.lp_warm_start_hits;
  record.lp_tableau_fallbacks = t.lp_tableau_fallbacks;
  record.lp_basis_repairs = t.lp_basis_repairs;
  record.solve_seconds = result.total_solve_seconds;
  record.wall_seconds = wall;
  record.total_actual = result.total_actual;
  return record;
}

void write_json(const std::vector<ArmRecord>& records, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("  (could not open %s for writing)\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"churn\",\n  \"runs\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ArmRecord& r = records[i];
    std::fprintf(out,
                 "    {\"arm\": \"%s\", \"rounds\": %zu, \"events_applied\": %zu, "
                 "\"max_devices_down\": %zu, \"every_round_fits\": %s, "
                 "\"degraded_rounds\": %zu, \"fallback_rounds\": %zu, "
                 "\"deadline_expirations\": %zu, \"fastpath_lp_fallbacks\": %zu, "
                 "\"lp_iterations\": %zu, \"lp_cold_solves\": %zu, "
                 "\"lp_warm_resolves\": %zu, \"lp_warm_start_hits\": %zu, "
                 "\"lp_tableau_fallbacks\": %zu, \"lp_basis_repairs\": %zu, "
                 "\"solve_seconds\": %.6f, \"wall_seconds\": %.6f, "
                 "\"total_actual\": %.6f}%s\n",
                 r.arm.c_str(), r.rounds, r.events_applied, r.max_devices_down,
                 r.every_round_fits ? "true" : "false", r.degraded_rounds,
                 r.fallback_rounds, r.deadline_expirations, r.fastpath_lp_fallbacks,
                 r.lp_iterations, r.lp_cold_solves, r.lp_warm_resolves,
                 r.lp_warm_start_hits, r.lp_tableau_fallbacks, r.lp_basis_repairs,
                 r.solve_seconds, r.wall_seconds, r.total_actual,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("  wrote %s (%zu runs)\n", path.c_str(), records.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rounds = 40;
  std::string output = "BENCH_churn.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--rounds=", 9) == 0) {
      rounds = static_cast<std::size_t>(std::stoul(argv[a] + 9));
    } else if (std::strncmp(argv[a], "--output=", 9) == 0) {
      output = argv[a] + 9;
    } else {
      std::printf("usage: %s [--rounds=N] [--output=PATH]\n", argv[0]);
      return 1;
    }
  }

  bench::print_header(
      "Churn: failure-heavy dynamic cluster + solver fault injection",
      "warm solver paths keep serving through churn at >= 5x fewer pivots than "
      "cold-per-event");

  const cluster::Cluster cluster = cluster::make_paper_cluster();
  const workload::GpuCatalog catalog = workload::make_paper_catalog();
  const std::vector<std::string> gpu_names = {"RTX3070", "RTX3080", "RTX3090"};
  const workload::ModelZoo zoo;

  // A persistent tenant population (long jobs) so the churn — not job
  // completion — drives the user-set dynamics.
  workload::TraceOptions trace_options;
  trace_options.num_tenants = 30;
  trace_options.mean_jobs_per_tenant = 4.0;
  trace_options.single_model_fraction = 0.8;
  trace_options.iterations_mu = 15.0;  // ~3M iterations median: nobody
  trace_options.iterations_sigma = 0.3;  // finishes inside the horizon
  trace_options.seed = 23;
  const workload::Trace base_trace = workload::generate_trace(zoo, trace_options);

  // Failure-heavy schedule: both arms replay exactly this event stream.
  workload::Trace trace = base_trace;  // arrivals append tenants/jobs
  sim::EventScheduleOptions schedule_options;
  schedule_options.seed = 31;
  schedule_options.horizon_rounds = rounds;
  schedule_options.tenant_arrival_rate = 0.05;
  schedule_options.tenant_departure_rate = 0.05;
  schedule_options.burst_rate = 0.06;
  schedule_options.failure_rate = 0.30;
  schedule_options.whole_host_failure_fraction = 0.15;
  schedule_options.drift_rate = 0.05;
  schedule_options.burst_factor = 2.0;
  schedule_options.drift_sigma = 0.10;
  schedule_options.recovery_rounds = 4;
  // Arriving tenants' jobs outlive the horizon too, so the virtual-user set
  // changes only at genuine churn events, not at job completions.
  schedule_options.arrival_iterations_mu = 15.0;
  schedule_options.arrival_iterations_sigma = 0.3;
  const std::vector<sim::ClusterEvent> events =
      sim::generate_event_schedule(cluster, zoo, trace, schedule_options);
  std::printf("  schedule: %zu events over %zu rounds\n", events.size(), rounds);

  sim::SimOptions options;
  options.scheduler = "OEF-coop";
  options.max_rounds = rounds;
  options.events = events;
  options.fault_eta_corruption_rate = 0.02;
  options.fault_basis_fault_rate = 0.25;

  std::vector<ArmRecord> records;
  records.push_back(
      run_arm("warm", options, cluster, catalog, gpu_names, zoo, trace));
  sim::SimOptions cold_options = options;
  cold_options.cold_restart_scheduler = true;
  records.push_back(
      run_arm("cold_per_event", cold_options, cluster, catalog, gpu_names, zoo, trace));

  common::Table table({"arm", "rounds", "events", "down(max)", "degraded", "fallback",
                       "pivots", "cold", "warm", "repairs", "tableau fb",
                       "wall (s)"});
  for (const ArmRecord& r : records) {
    table.add_row({r.arm, std::to_string(r.rounds), std::to_string(r.events_applied),
                   std::to_string(r.max_devices_down), std::to_string(r.degraded_rounds),
                   std::to_string(r.fallback_rounds), std::to_string(r.lp_iterations),
                   std::to_string(r.lp_cold_solves),
                   std::to_string(r.lp_warm_resolves + r.lp_warm_start_hits),
                   std::to_string(r.lp_basis_repairs),
                   std::to_string(r.lp_tableau_fallbacks),
                   common::format_double(r.wall_seconds, 3)});
  }
  table.print();

  int failures = 0;
  const auto check = [&failures](const std::string& label, bool ok) {
    bench::print_check(label, ok);
    if (!ok) ++failures;
  };

  const ArmRecord& warm = records[0];
  const ArmRecord& cold = records[1];
  // Reaching this line at all is the zero-abort criterion: a CHECK abort or
  // unhandled fault would have killed the process mid-run.
  check("failure-heavy run completed with zero aborts (both arms)", true);
  check("warm arm served every scheduled round", warm.rounds == rounds);
  check("cold arm served every scheduled round", cold.rounds == rounds);
  check("warm arm: every round fits the surviving capacity", warm.every_round_fits);
  check("cold arm: every round fits the surviving capacity", cold.every_round_fits);
  check("faults engaged the repair/ladder machinery",
        warm.lp_basis_repairs + warm.lp_tableau_fallbacks > 0);
  check("no round needed the terminal last-feasible fallback",
        warm.fallback_rounds == 0 && cold.fallback_rounds == 0);
  const double ratio = static_cast<double>(cold.lp_iterations) /
                       std::max<double>(1.0, static_cast<double>(warm.lp_iterations));
  std::printf("  pivots: warm=%zu cold=%zu ratio=%.1fx\n", warm.lp_iterations,
              cold.lp_iterations, ratio);
  check("warm churn >= 5x cheaper in pivots than cold-solve-per-event", ratio >= 5.0);

  write_json(records, output);
  return failures;
}
