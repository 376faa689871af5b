#include "harness.h"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>

#include "common/clock.h"
#include "common/stats.h"

namespace perfbench {

double now_seconds() { return oef::common::monotonic_seconds(); }

double cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

double median(const std::vector<double>& values) { return pct(values, 50.0); }

double pct(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : oef::common::percentile(values, p);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::line(const std::string& name, double value, const std::string& unit,
                  std::size_t samples) {
  lines_.push_back({name, value, unit, samples});
}

void Report::set(const std::string& name, double value) { metrics_[name] = value; }

double Report::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) throw std::logic_error("metric not set: " + name);
  return it->second;
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failed_checks_.push_back(what);
}

void Report::count_ops(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::print_lines() const {
  for (const Line& l : lines_) {
    std::printf("  %-24s %14.6g %-6s (n=%zu)\n", l.name.c_str(), l.value, l.unit.c_str(),
                l.samples);
  }
  const double failed_share =
      attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
  std::printf("  %-24s %14.6g %-6s (n=%zu)\n", "failed_share", failed_share, "share",
              attempted_);
  std::printf("  checks: %zu run, %zu failed\n", checks_, failed_checks_.size());
  for (const std::string& what : failed_checks_) std::printf("  CHECK FAILED: %s\n", what.c_str());
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* layer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->open(layer, name);
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

void Tracer::Span::attribute(const char* layer, const char* name, double seconds) {
  if (tracer_ != nullptr) tracer_->derived(index_, layer, name, seconds);
}

std::size_t Tracer::open(const char* layer, const char* name) {
  Record record;
  record.layer = layer;
  record.name = name;
  record.parent = open_.empty() ? kNoParent : open_.back();
  record.start = now_seconds();
  records_.push_back(std::move(record));
  open_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void Tracer::close(std::size_t index) {
  records_[index].end = now_seconds();
  open_.pop_back();
}

void Tracer::derived(std::size_t parent, const char* layer, const char* name,
                     double seconds) {
  Record record;
  record.layer = layer;
  record.name = name;
  record.parent = parent;
  record.start = records_[parent].start;
  record.end = record.start + seconds;
  record.derived = true;
  records_.push_back(std::move(record));
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(records_.size(), 0.0);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] += records_[i].end - records_[i].start;
    if (records_[i].parent != kNoParent) {
      self[records_[i].parent] -= records_[i].end - records_[i].start;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < records_.size(); ++i) by_layer[records_[i].layer] += self[i];
  return by_layer;
}

void Tracer::write(const std::string& path,
                   const std::map<std::string, double>& counters) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"parent\": %lld, \"layer\": \"%s\", \"name\": \"%s\", "
                 "\"start\": %.9f, \"end\": %.9f, \"derived\": %s}%s\n",
                 i, r.parent == kNoParent ? -1LL : static_cast<long long>(r.parent),
                 json_escape(r.layer).c_str(), json_escape(r.name).c_str(),
                 r.start, r.end, r.derived ? "true" : "false",
                 i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(out, "],\n\"counters\": {");
  bool first = true;
  for (const auto& [name, value] : counters) {
    std::fprintf(out, "%s\n  \"%s\": %.17g", first ? "" : ",", json_escape(name).c_str(),
                 std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::fprintf(out, "\n}}\n");
  std::fclose(out);
}

}  // namespace perfbench
