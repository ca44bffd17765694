// Shared harness for the host wall-clock benchmark: clocks, sample
// statistics, process counters (heap allocations, rusage, VmHWM), the
// traced-run fold, and the report every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support/trace.h"

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Heap allocations made through operator new by any thread of the process
/// (the replacement operators live in alloc_counter.cc).
std::uint64_t HeapAllocations();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory inside the checkout (artifact stores, traces).
  std::string work_dir;
};

/// Consecutive samples per percentile block: a block's p95 has ten samples
/// beyond it.
inline constexpr std::size_t kPercentileBlock = 200;

/// Samples (latencies in ms, or per-block rates) in the order recorded.
/// Percentiles come only from these raw samples (nearest rank on a sorted
/// copy), never from a registry histogram.
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double Mean() const;
  double Sum() const;
  /// Median over consecutive blocks of kPercentileBlock samples (the last
  /// block takes the remainder) of each block's p-th percentile; fewer
  /// samples make one block. A host stall then moves only the blocks it
  /// falls in, not the reported value.
  double BlockPercentile(double p) const;
  std::size_t Blocks() const { return std::max<std::size_t>(1, values_.size() / kPercentileBlock); }

 private:
  std::vector<double> values_;
};

/// Process-level counters sampled around a timed window.
struct ProcStats {
  double cpu_s = 0.0;               ///< user + system CPU seconds
  std::int64_t ctx_switches = 0;    ///< voluntary + involuntary
  static ProcStats Now();
};

/// VmHWM of this process in MiB.
double PeakRssMb();

/// Set-ups per run: at least kMinSetups, and more (up to kMaxSetups) until
/// they took kMinSetupTotalS, so a cheap set-up still gets a steady median.
inline constexpr std::size_t kMinSetups = 3;
inline constexpr std::size_t kMaxSetups = 200;
inline constexpr double kMinSetupTotalS = 1.5;

/// Median of repeated set-up times: each call of `setup` builds the
/// workload's state anew and returns its wall time in seconds.
double MedianSetupSeconds(const std::function<double()>& setup);

/// Self time per span, folded from the tracer's ring.
///
/// Spans are nested per thread by [ts, ts + dur]; a span's self time is its
/// duration minus the time its direct children on the same thread cover.
/// by_category()/by_name() fold only spans inside a "bench" unit span; the
/// unit span's own self time is the part of the unit no layer span covers.
class TraceFold {
 public:
  /// Fold the events recorded since the last call, then clear the ring.
  /// Call between units, while no other thread records spans.
  void Drain();

  /// Self ms summed by "category" and by "category/name".
  const std::map<std::string, double>& by_category() const { return by_category_; }
  const std::map<std::string, double>& by_name() const { return by_name_; }
  double SelfMs(const std::string& category) const;
  /// Self and total ms by "category/name" over every thread, inside units
  /// or not (pipeline stages and serve pumps run on pool workers).
  const std::map<std::string, double>& all_self() const { return all_self_; }
  const std::map<std::string, double>& all_total() const { return all_total_; }
  /// Sum of the durations of the "bench" unit spans.
  double unit_ms() const { return unit_ms_; }
  /// Part of unit_ms() during which some layer span was open on any thread
  /// (a serve burst's work runs on the pool's workers, not on its caller).
  double covered_ms() const { return covered_ms_; }
  std::int64_t units() const { return units_; }
  std::uint64_t dropped() const { return dropped_; }
  std::int64_t events() const { return events_; }
  /// Raw Chrome-trace JSON of the first drained batch (written out as the
  /// run's trace file).
  const std::string& first_trace() const { return first_trace_; }

 private:
  std::map<std::string, double> by_category_;
  std::map<std::string, double> by_name_;
  std::map<std::string, double> all_self_;
  std::map<std::string, double> all_total_;
  double unit_ms_ = 0.0;
  double covered_ms_ = 0.0;
  std::int64_t units_ = 0;
  std::uint64_t dropped_ = 0;
  std::int64_t events_ = 0;
  std::string first_trace_;
};

/// Name of the span the benchmark opens around every traced unit.
inline constexpr const char* kUnitCategory = "bench";

/// Opens the benchmark's own span (category "bench") when tracing is on;
/// the name is copied only then, so an untraced span allocates nothing.
/// Names starting with "unit" mark the timed units the fold accounts.
class BenchSpan {
 public:
  explicit BenchSpan(const std::string& name) {
    if (scope_.armed()) scope_.Begin(kUnitCategory, name);
  }

 private:
  tnp::support::TraceScope scope_;
};

/// What a workload reports.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Free-form facts (sample counts, rates) for the side report.
  std::map<std::string, std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Note(const std::string& key, const std::string& value) { notes[key] = value; }
  /// Count one checked unit; a wrong output fails it and marks the run
  /// incorrect.
  void Check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
  /// Count one unit that failed without a wrong output (shed, expired).
  void Fail() {
    ++attempted;
    ++failed;
  }

  /// The end-to-end metrics every workload reports, from its timed window.
  /// Rates are medians over the workload's rounds, passes or 1-s windows;
  /// p95_ms is latency.BlockPercentile(95).
  void SetEndToEnd(double setup_s, double p50_ms, const Samples& latency,
                   double throughput_per_s, std::int64_t units_ok, std::int64_t units_attempted);
  /// proc.*, memory.*, bench.samples (every workload, traced run).
  void SetProcess(const ProcStats& before, const ProcStats& after, std::int64_t units);
  /// trace.* plus kernels.* / exec.overhead_ms from a fold of traced units.
  /// With `all_threads` (work that runs on pool workers while the unit's
  /// thread waits) kernel time comes from the spans of every thread, and
  /// exec.overhead_ms is the sessions' Run() time minus kernel self time.
  void SetTrace(const TraceFold& fold, double untraced_unit_ms, bool all_threads = false);
};

/// Machine facts recorded with every result: nproc, ISA flags, build type.
std::map<std::string, std::string> MachineFacts();

/// Median over groups (e.g. the entries of a model mix) of each group's
/// median. A pooled median of a mix falls between the clusters of the
/// cheaper and the dearer half, where it jumps with every sample near the
/// gap; the median of per-entry medians moves only when the entries do.
double MedianOfMedians(const std::vector<Samples>& groups);

/// Spearman rank correlation of two equally long series.
double SpearmanRank(const std::vector<double>& a, const std::vector<double>& b);

/// Enable the tracer with an empty ring that holds `capacity` events.
void EnableTracing(std::size_t capacity);
void DisableTracing();

}  // namespace hostbench
