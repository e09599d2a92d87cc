// Shared plumbing for the layer benchmark: clocks, order statistics,
// /proc memory probes, the result record every workload fills in, and the
// in-memory span recorder used by traced runs.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public API -- never inside the library -- and are written out
// once, when the run ends.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace layerbench {

using Clock = std::chrono::steady_clock;

/// Captured during static initialization, before main(): the reference
/// point for setup_s ("process start to first timed operation").
extern const Clock::time_point kProcessStart;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
[[nodiscard]] inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Median (mean of the two middle values for an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 1]; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// A /proc/self/status field in MiB ("VmRSS", "VmHWM"); 0 if unreadable.
[[nodiscard]] double proc_status_mb(const char* field);

/// splitmix64 step: the benchmark's only source of randomness, so every
/// generated input is a pure function of --seed.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small sizes (H_10 Session runs, H_4..H_5 sweeps, ...) for the
  /// benchmark's own tests: every code path, in seconds.
  bool small = false;
  /// Stop right after set-up and report only setup_s.
  bool setup_only = false;
  /// Where a traced run writes its spans (empty: nowhere).
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `failed` counts operations whose result did not
/// verify; `broken` records any other check that did not hold (a mutant
/// the oracle accepted, a decomposition that drifted from Session).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool broken = false;
  std::vector<Metric> metrics;
  /// The generated inputs, spelled out; stamped as a digest so that runs
  /// can show their inputs are a function of --seed alone.
  std::string inputs;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts `n` failed operations and says why on stderr.
  void fail_op(const std::string& why, std::uint64_t n = 1);
  /// Marks the run as not correct and says why on stderr.
  void fail_check(const std::string& why);
};

/// Spans kept in memory by a traced run and written as one JSON document
/// at exit. Parent -1 marks a root span; every span carries the workload
/// and the index of the timed operation it belongs to. Thread-safe: the
/// serve workload's client threads share one recorder.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload)
      : workload_(std::move(workload)) {}

  /// Opens a span and returns its id.
  int open(const char* name, int parent, std::uint64_t op);
  void close(int id);
  /// Duration of a closed span in milliseconds.
  [[nodiscard]] double ms(int id) const;

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name, int parent, std::uint64_t op)
        : rec_(rec), id_(rec == nullptr ? -1 : rec->open(name, parent, op)) {}
    ~Scope() {
      if (rec_ != nullptr) rec_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    SpanRecorder* rec_;
    int id_;
  };

  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    std::uint64_t op;
  };
  std::string workload_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace layerbench
