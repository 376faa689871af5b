// Shared plumbing of the repository benchmark: run options, the report every
// workload fills (printed by name for people, and as one JSON line for
// tools), and the span recorder of the traced run.
//
// Spans are recorded only from this directory's files, around the calls the
// benchmark makes into the repository's layers; nothing inside src/ is
// instrumented. Where a layer already returns a timer of its own (the LP
// solver's solve seconds, the envy oracle's seconds), the benchmark attributes
// that share of the enclosing span to the layer as a derived child, so a
// layer's self time is its spans' duration minus what their children cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: every workload shrinks to a few tenants and rounds.
  bool tiny = false;
  /// Overrides the workload's tenant count when non-zero.
  std::size_t tenants = 0;
  /// Per-run temporary directory (relative to the working directory, so Unix
  /// socket paths stay short). Created before and removed after the run.
  std::string scratch_dir;
  /// Where the traced run writes its spans and counters.
  std::string trace_path;
};

/// Seconds on the repository's monotonic clock.
[[nodiscard]] double now_seconds();

/// CPU seconds this process has run, summed over its threads. On a shared
/// virtual machine the host takes a busy vCPU away for up to a quarter of
/// the time, by an amount that changes from minute to minute; wall time
/// counts those pauses and CPU time does not. The compute-only workloads
/// therefore time their operations on this clock (and print the wall
/// figures beside them).
[[nodiscard]] double cpu_seconds();

/// Median and a percentile of a sample, via common::percentile.
[[nodiscard]] double median(const std::vector<double>& values);
[[nodiscard]] double pct(const std::vector<double>& values, double p);

/// Everything one run reports. Workloads set metrics by name; main() emits
/// exactly the names BENCHMARK.json declares for the run's mode.
class Report {
 public:
  /// One figure in the human-readable block, with its sample count.
  void line(const std::string& name, double value, const std::string& unit,
            std::size_t samples);
  /// A metric of the machine-readable line (end-to-end or per-layer).
  void set(const std::string& name, double value);
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  [[nodiscard]] double get(const std::string& name) const;

  /// Records a correctness check; a failed one makes the run exit non-zero.
  void check(bool ok, const std::string& what);
  /// Counts attempted operations and those that failed.
  void count_ops(std::size_t attempted, std::size_t failed);

  [[nodiscard]] bool correct() const { return failed_checks_.empty(); }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, double>& metrics() const { return metrics_; }
  void print_lines() const;

 private:
  struct Line {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Line> lines_;
  std::map<std::string, double> metrics_;
  std::vector<std::string> failed_checks_;
  std::size_t checks_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// In-memory span recorder; a disabled tracer records nothing. Spans are
/// recorded from the main thread only and nest in the order they open.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span around one call into a layer.
  class Span {
   public:
    Span(Tracer* tracer, const char* layer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Attributes `seconds` of this span to a child in another layer, as
    /// measured by a timer that layer returns itself.
    void attribute(const char* layer, const char* name, double seconds);

   private:
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] Span span(const char* layer, const char* name) {
    return Span(enabled_ ? this : nullptr, layer, name);
  }

  /// Self seconds per layer: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes every span, and the given counters, as JSON.
  void write(const std::string& path, const std::map<std::string, double>& counters) const;

 private:
  struct Record {
    std::string layer;
    std::string name;
    std::size_t parent = kNoParent;
    double start = 0.0;
    double end = -1.0;
    bool derived = false;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::size_t open(const char* layer, const char* name);
  void close(std::size_t index);
  void derived(std::size_t parent, const char* layer, const char* name, double seconds);

  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  // open spans, innermost last
};

/// A workload entry point: fills `report`, records into `tracer`.
using WorkloadFn = void (*)(const RunOptions&, Tracer&, Report&);

void run_cold_solve(const RunOptions& options, Tracer& tracer, Report& report);
void run_demand_churn(const RunOptions& options, Tracer& tracer, Report& report);
void run_daemon_mixed(const RunOptions& options, Tracer& tracer, Report& report);
void run_cluster_sim(const RunOptions& options, Tracer& tracer, Report& report);

}  // namespace perfbench
