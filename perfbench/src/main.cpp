// oef_perfbench: the repository benchmark.
//
//   oef_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--tiny] [--tenants N] [--work-dir DIR]
//
// Runs one workload (cold_solve, demand_churn, daemon_mixed, cluster_sim)
// for about S seconds on inputs generated from seed N, checks its outputs,
// prints every figure by name with its unit and sample count, and ends with
// one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (and the spans and counters are written to
// DIR/traces/<workload>-seed<N>.json). Exit status 0 means every check
// passed; 1 a failed check; 2 a usage error. --tiny shrinks every workload
// for the smoke test; --tenants overrides the workload's tenant count (used
// to measure the baselines in README.md; gated runs keep the default).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;
using perfbench::Tracer;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer", in order). Per-layer
// counters and times are per operation of the workload (a cold solve, a churn
// step, an acked writer op, a simulated round), so runs of different length
// compare; ledger.* are totals of the traced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},     {"op_tail_ms", "ms"},
    {"delivered_throughput", "gpu_eq"}, {"ok_share", "share"},
};

constexpr MetricSpec kPerLayer[] = {
    {"solver.pivots", "count/op"},
    {"solver.cold_pivots", "count/op"},
    {"solver.warm_pivots", "count/op"},
    {"solver.cold_solves", "count/op"},
    {"solver.warm_resolves", "count/op"},
    {"solver.warm_start_hits", "count/op"},
    {"solver.seconds", "s/op"},
    {"solver.us_per_pivot", "us"},
    {"solver.basis_repairs", "count/op"},
    {"solver.dense_fallbacks", "count/op"},
    {"solver.tableau_fallbacks", "count/op"},
    {"core.oracle_s", "s/op"},
    {"core.unattributed_s", "s/op"},
    {"core.lazy_rounds", "count/op"},
    {"core.envy_rows_added", "count/op"},
    {"core.envy_rows_dropped", "count/op"},
    {"core.warm_compactions", "count/op"},
    {"core.warm_over_cold_pivots", "ratio"},
    {"core.warm_over_cold_s", "ratio"},
    {"service.handle_ms", "ms"},
    {"service.checkpoint_write_ms", "ms"},
    {"service.checkpoint_bytes", "bytes"},
    {"service.encode_us", "us"},
    {"service.decode_us", "us"},
    {"service.response_bytes", "bytes"},
    {"service.resolves", "count/op"},
    {"service.batches", "count/op"},
    {"service.max_batch", "count"},
    {"service.checkpoints", "count/op"},
    {"service.shed", "count/op"},
    {"service.deadline_expirations", "count/op"},
    {"service.duplicates", "count/op"},
    {"service.max_queue_depth", "count"},
    {"service.client_retries", "count/op"},
    {"sched.solve_s", "s/op"},
    {"sched.degraded_rounds", "count/op"},
    {"sched.fallback_rounds", "count/op"},
    {"sim.non_sched_s", "s/op"},
    {"placement.cross_type_jobs", "count/op"},
    {"placement.cross_host_jobs", "count/op"},
    {"placement.migrations", "count/op"},
    {"placement.straggler_workers", "count/op"},
    {"ledger.solver_s", "s"},
    {"ledger.core_s", "s"},
    {"ledger.sched_s", "s"},
    {"ledger.sim_s", "s"},
    {"ledger.service_s", "s"},
    {"ledger.workload_s", "s"},
    {"ledger.cluster_s", "s"},
    {"ledger.common_s", "s"},
    {"ledger.bench_s", "s"},
    {"ledger.wall_s", "s"},
    {"ledger.coverage", "ratio"},
};

// Layers of the self-time ledger, in print order. "sim" includes placement:
// the simulator calls the packer internally, so from outside the two are
// one interval.
constexpr const char* kLedgerLayers[] = {"solver", "core",     "sched",  "sim",  "service",
                                         "workload", "cluster", "common", "bench"};

struct Workload {
  const char* name;
  perfbench::WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"cold_solve", perfbench::run_cold_solve},
    {"demand_churn", perfbench::run_demand_churn},
    {"daemon_mixed", perfbench::run_daemon_mixed},
    {"cluster_sim", perfbench::run_cluster_sim},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload cold_solve|demand_churn|daemon_mixed|cluster_sim "
               "--seed N --seconds S --trace 0|1 [--tiny] [--tenants N] [--work-dir DIR]\n",
               argv0);
  return 2;
}

// Consumes "KEY VALUE" at argv[i].
bool take(int argc, char** argv, int& i, const char* key, std::string& value) {
  if (std::strcmp(argv[i], key) != 0 || i + 1 >= argc) return false;
  value = argv[++i];
  return true;
}

// Ledger of the traced run: self seconds per layer, the benchmark's own
// share, and how much of the measured wall the parts account for.
void fill_ledger(const Tracer& tracer, double wall, Report& report) {
  const std::map<std::string, double> self = tracer.self_seconds();
  double covered = 0.0;
  std::printf("  self time by layer (traced run, wall %.6f s):\n", wall);
  for (const char* layer : kLedgerLayers) {
    const auto it = self.find(layer);
    const double seconds = it == self.end() ? 0.0 : it->second;
    covered += seconds;
    report.set(std::string("ledger.") + layer + "_s", seconds);
    std::printf("    %-9s %12.6f s  %6.2f%%\n", layer, seconds,
                wall > 0.0 ? 100.0 * seconds / wall : 0.0);
  }
  for (const auto& [layer, seconds] : self) {
    bool known = false;
    for (const char* l : kLedgerLayers) known = known || layer == l;
    report.check(known, "span recorded under an unknown layer: " + layer);
  }
  const double coverage = wall > 0.0 ? covered / wall : 0.0;
  report.set("ledger.wall_s", wall);
  report.set("ledger.coverage", coverage);
  std::printf("    parts / wall = %.4f\n", coverage);
  report.check(std::fabs(coverage - 1.0) <= 0.05,
               "traced layer parts account for the run wall within 5%");
}

void print_json(const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted());
  out += ", \"failed\": " + std::to_string(report.failed());
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    out += first ? "" : ", ";
    out += std::string("\"") + spec.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           spec.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      emit(spec, report.has(spec.name) ? report.get(spec.name) : 0.0);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      emit(spec, report.has(spec.name) ? report.get(spec.name) : 0.0);
    }
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string work_dir = ".bench_build";
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string value;
      if (take(argc, argv, i, "--workload", value)) {
        options.workload = value;
      } else if (take(argc, argv, i, "--seed", value)) {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (take(argc, argv, i, "--seconds", value)) {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0;
      } else if (take(argc, argv, i, "--trace", value)) {
        if (value != "0" && value != "1") return usage(argv[0]);
        options.trace = value == "1";
        have_trace = true;
      } else if (take(argc, argv, i, "--tenants", value)) {
        options.tenants = std::stoul(value);
      } else if (take(argc, argv, i, "--work-dir", value)) {
        work_dir = value;
      } else if (std::strcmp(argv[i], "--tiny") == 0) {
        options.tiny = true;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  perfbench::WorkloadFn run = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) run = w.run;
  }
  if (run == nullptr || !have_seed || !have_seconds || !have_trace) {
    return usage(argv[0]);
  }

  namespace fs = std::filesystem;
  std::string scratch_template = work_dir + "/run-XXXXXX";
  try {
    fs::create_directories(work_dir);
  } catch (const fs::filesystem_error& error) {
    std::fprintf(stderr, "cannot create %s: %s\n", work_dir.c_str(), error.what());
    return 1;
  }
  if (mkdtemp(scratch_template.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a run directory under %s\n", work_dir.c_str());
    return 1;
  }
  options.scratch_dir = scratch_template;
  options.trace_path =
      work_dir + "/traces/" + options.workload + "-seed" + std::to_string(options.seed) + ".json";

  std::printf("workload %s  seed %llu  seconds %g  trace %d%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? "  (tiny)" : "");
  Report report;
  Tracer tracer(options.trace);
  int status = 0;
  try {
    const double start = perfbench::now_seconds();
    run(options, tracer, report);
    const double wall = perfbench::now_seconds() - start;
    if (options.trace) {
      fill_ledger(tracer, wall, report);
      fs::create_directories(work_dir + "/traces");
      tracer.write(options.trace_path, report.metrics());
      std::printf("  spans and counters written to %s\n", options.trace_path.c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "benchmark aborted: %s\n", error.what());
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(options.scratch_dir, ignored);
  if (status != 0) return status;

  if (report.attempted() == 0) report.check(false, "the run attempted no operation");
  if (!options.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      const double value = report.has(spec.name) ? report.get(spec.name) : 0.0;
      report.check(std::isfinite(value) && value > 0.0,
                   std::string("end-to-end metric is not a positive number: ") + spec.name);
    }
  }
  report.print_lines();
  print_json(report, options.trace);
  return report.correct() ? 0 : 1;
}
