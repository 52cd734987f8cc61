// Shared pieces of the end-to-end benchmark: wall clock, sample statistics,
// rate arithmetic, the metric record each workload fills in, and the
// in-memory span recorder used by the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Quantile q in [0, 1] of `v` by linear interpolation between order
// statistics (the "type 7" rule numpy and spreadsheets use).  0 for no
// samples.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double sum(const std::vector<double>& v);
double mean(const std::vector<double>& v);

// Work per second accumulated call by call.  Each call contributes the work
// it did and the seconds it took, so rate() is total work over total time —
// the same value whether one call or a thousand were timed.  (A per-call
// count divided by the time of all calls understates the rate by the call
// count; perfbench/src/selftest.cc pins that down.)
class RateMeter {
 public:
  void add(double work, double seconds) {
    work_ += work;
    seconds_ += seconds;
  }
  double rate() const { return seconds_ > 0 ? work_ / seconds_ : 0.0; }

 private:
  double work_ = 0;
  double seconds_ = 0;
};

// What one run of a workload reports.  `metrics` are the metrics the
// run's mode (untraced or traced) declares; `extra` are diagnostics kept in
// the result file only.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void diag(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, value, unit});
  }
  void fail(int64_t ops, const std::string& why) {
    failed += ops;
    if (errors.size() < 8) errors.push_back(why);
  }
};

// Spans recorded by the traced run: one per call into a layer's public
// function, made from the benchmark's own code.  Each thread records into its
// own buffer (no locking on the measured path); the buffers are merged and
// written when the run ends.
struct Span {
  const char* name;
  double start_s;
  double end_s;
  int32_t parent;  // index in the same buffer, -1 for a root
  int64_t query;   // spans of one operation share this id
  int32_t tag;     // workload-defined detail (e.g. a service status)
};

class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  // Opens a span and returns its index (-1 when tracing is off).
  int32_t open(const char* name, int32_t parent, int64_t query) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_s(), 0.0, parent, query, 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void close(int32_t id, int32_t tag = 0) {
    if (id < 0) return;
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_s = now_s();
    s.tag = tag;
  }
  // Appends a span timed elsewhere (used by the self-test).
  void add(const Span& s) { spans_.push_back(s); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span over one call.
class Scope {
 public:
  Scope(SpanBuffer& buf, const char* name, int32_t parent, int64_t query)
      : buf_(buf), id_(buf.open(name, parent, query)) {}
  ~Scope() { buf_.close(id_, tag_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }
  void set_tag(int32_t tag) { tag_ = tag; }

 private:
  SpanBuffer& buf_;
  int32_t id_;
  int32_t tag_ = 0;
};

// Per-name self time of every closed span: its duration minus the part of
// it that its direct children cover.  Values in seconds, in recording order.
struct SelfTimes {
  std::vector<std::string> names;
  std::vector<std::vector<double>> seconds;
  const std::vector<double>& of(const std::string& name) const;
};
SelfTimes self_times(const std::vector<const SpanBuffer*>& buffers);

// Writes every span of `buffers` as a JSON array to `path`.  Parent ids are
// rewritten to global ids (buffer offset + index).  Returns false on I/O
// failure.
bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers, double t0_s);

// Run arguments shared by the workloads.
struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned threads = 1;
  std::string span_path;  // where the traced run writes its spans
};

Outcome run_md_dhfr(const RunArgs& args);
Outcome run_estimate_dhfr512(const RunArgs& args);
Outcome run_service_sweep(const RunArgs& args);

}  // namespace perfbench
