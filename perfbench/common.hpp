// Shared pieces of the benchmark program: clocks, sample sets, the in-memory
// span recorder, metric output, and the settings every workload reads.
//
// Everything here sits outside the library: the benchmark times each layer by
// calling its public functions and records spans around those calls.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call (process-wide epoch).
double now_s();

/// Seconds elapsed since `start` (a now_s() value).
inline double since_s(double start) { return now_s() - start; }

/// A set of timing or ratio samples. Quantiles interpolate linearly.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> values_;
};

/// One recorded span. `parent` is the id of the enclosing span, 0 for a
/// root; `op` ties the spans of one solve or one request together.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
};

/// In-memory span recorder. Disabled recorders cost one branch per call.
/// Not thread-safe: each recorder belongs to one thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id (0 when disabled).
  std::uint64_t begin(const char* name, std::uint64_t parent, std::uint64_t op);
  /// Closes the span `id` opened by begin().
  void end(std::uint64_t id);
  /// Records a finished span with explicit times; returns its id.
  std::uint64_t add(const char* name, double start, double end,
                    std::uint64_t parent, std::uint64_t op);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer in ms: each span's duration minus the part of its
  /// interval covered by its children, summed by the layer prefix of the
  /// span name (the text before the first '.').
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Writes one JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
             std::uint64_t op)
      : tracer_(tracer), id_(tracer.begin(name, parent, op)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

/// Settings shared by every workload, parsed from the command line.
struct Settings {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;      ///< where a traced run writes its spans
  unsigned threads = 1;        ///< T = min(4, nproc)
  double online_rps = 0.0;     ///< serve-online offered rate
  double slo_ms = 0.0;         ///< latency limit of the workload
};

/// A metric as printed on the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<Metric> metrics;
  pcmax::JsonValue report = pcmax::JsonValue::make_object();

  void fail(const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a timing's sample count in the report.
  void samples(const std::string& name, std::size_t count) {
    report["samples"][name] = static_cast<std::uint64_t>(count);
  }
};

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Order-sensitive 128-bit digest of a schedule (every machine's job list in
/// order), so two schedules compare byte for byte without keeping them.
struct ScheduleDigest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const ScheduleDigest&, const ScheduleDigest&) = default;
};
ScheduleDigest digest(const pcmax::Schedule& schedule);

/// Applies a seeded uniform shuffle to the job order of `base`.
pcmax::Instance permuted(const pcmax::Instance& base, std::uint64_t seed);

}  // namespace perfbench
