// Process-wide metrics registry: counters, gauges and latency histograms.
//
// Metric objects are created on first use and never destroyed or moved, so a
// `Counter&` obtained once (e.g. cached in a function-local static) stays
// valid for the process lifetime; `Registry::Reset()` zeroes values in place
// without invalidating references. All operations are thread-safe.
//
// Naming convention: slash-separated lowercase paths, most-general component
// first — "kernels/dispatch", "flow/BYOC(APU)/sim_us",
// "pipeline/queue/obj-det/depth". Latency histograms end in "_us".
//
//   metrics::Registry::Global().GetCounter("kernels/dispatch").Increment();
//   metrics::Registry::Global().GetHistogram("bench/fig5/us").Record(dt_us);
//   metrics::Registry::Global().DumpText(std::cout);
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tnp {
namespace support {
namespace metrics {

class Counter {
 public:
  void Increment(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written value plus a high-watermark (useful for queue depths).
class Gauge {
 public:
  void Set(double value);
  void Add(double delta);
  double value() const;
  double max() const;
  void Reset();

 private:
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

struct HistogramSummary {
  std::int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Log-linear bucket layout shared by every histogram. Bucket 0 holds
// [0, 1) (and negative or NaN values); above that each power of two
// [2^e, 2^(e+1)), e = 0..23, is cut into 8 equal buckets, so a bucket is
// never wider than 1/8 of its lower bound and every integer below 16 is a
// bucket lower bound. The last bucket starts at 15 * 2^20 us (~15.7 s) and
// also holds everything larger (the true max is kept separately).
//
// Error bound: a percentile lands in the same bucket as the exact
// nearest-rank value, so from 1 us up it is off by at most
// kMaxRelativeError (12.5%) of that value. Buckets at most 1 wide (below
// 16) report their lower bound, so integer samples such as batch sizes are
// exact; below 1 the error is under 1.
constexpr int kSubBuckets = 8;  ///< per power of two
constexpr int kOctaves = 24;    ///< [2^0, 2^24)
constexpr int kNumBuckets = 1 + kOctaves * kSubBuckets;
constexpr double kMaxRelativeError = 1.0 / kSubBuckets;

int BucketOf(double value);
double BucketLowerBound(int bucket);
double BucketUpperBound(int bucket);

/// Bucket counts and moments of a histogram at one instant, or of the
/// difference between two instants (a window). Mergeable: `+=` adds a
/// window, `-=` subtracts an earlier snapshot of the same histogram.
///
/// `min`/`max` are exact in a Histogram::Snapshot() (outside a concurrent
/// Reset()). In a difference they are the later snapshot's exact [min, max]
/// clamped into the lowest/highest non-empty bucket — a window's extremes
/// are only known to bucket precision.
struct HistogramSnapshot {
  std::array<std::uint64_t, kNumBuckets> buckets{};
  std::uint64_t count = 0;  ///< sum of `buckets`
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;
  double max = 0.0;

  HistogramSnapshot& operator+=(const HistogramSnapshot& other);
  /// `earlier` must not hold more in any bucket than this snapshot does.
  HistogramSnapshot& operator-=(const HistogramSnapshot& earlier);

  /// Nearest-rank percentile, p in (0, 100]: finds the bucket holding the
  /// rank, interpolates within it (buckets at most 1 wide report their
  /// lower bound) and clamps to [min, max]. 0 when empty.
  double Percentile(double p) const;
  /// Fraction of samples strictly below `threshold`, interpolated within
  /// the threshold's bucket; 1.0 when empty (no traffic is no violation).
  double FractionBelow(double threshold) const;
  HistogramSummary Summarize() const;
};

/// Latency histogram over the fixed bucket layout above. Record() is O(1),
/// lock-free and allocation-free (a bit-arithmetic bucket index plus a few
/// relaxed atomics), and the histogram stays truthful however many samples
/// it sees; count/sum/min/max are exact, percentiles carry the layout's
/// error bound.
class Histogram {
 public:
  void Record(double value);
  std::int64_t count() const;
  /// Snapshot().Percentile(p).
  double Percentile(double p) const;
  HistogramSummary Summarize() const;
  /// Consistent enough for windows: every bucket read is a monotonic
  /// counter, so differences of successive snapshots never lose or double
  /// count a sample.
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> sum_sq_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// One registered metric, for exporters iterating the registry. The
/// pointers stay valid for the process lifetime (metrics are never removed);
/// at least one of the three is non-null.
struct MetricRef {
  std::string name;
  const Counter* counter = nullptr;
  const Gauge* gauge = nullptr;
  const Histogram* histogram = nullptr;
};

class Registry {
 public:
  static Registry& Global();

  /// Find-or-create. The returned reference is valid for the process
  /// lifetime (metrics are never removed).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// nullptr when the metric has not been created.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Plain-text dump of every metric, sorted by name.
  void DumpText(std::ostream& os) const;
  std::string DumpText() const;

  /// Every registered metric, sorted by name (exporter iteration).
  std::vector<MetricRef> Entries() const;

  /// Zero every metric in place; references stay valid.
  void Reset();

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Entry>> entries_;  // insertion order

  Entry& Find(const std::string& name);
  const Entry* FindConst(const std::string& name) const;
};

// ------------------------------------------------------------- exporters

/// Prometheus text exposition (version 0.0.4) of every registered metric,
/// in sorted-name order (deterministic and diffable across runs).
/// Slash-separated names sanitize to `tnp_`-prefixed underscore names
/// ("serve/queue/cpu/depth" -> "tnp_serve_queue_cpu_depth"); every series
/// carries `# HELP` (the original slash name) and `# TYPE` lines; gauges
/// export their high-watermark as an extra `<name>_max` series, histograms
/// export as summaries (quantile series + `_sum`/`_count`).
std::string ExportPrometheus(const Registry& registry = Registry::Global());

/// JSON snapshot: {"counters": {...}, "gauges": {name: {value, max}},
/// "histograms": {name: {count, min, max, mean, stddev, p50, p95, p99}}}.
/// Parseable by support::JsonValue (tested round-trip).
std::string ExportJson(const Registry& registry = Registry::Global());

}  // namespace metrics
}  // namespace support
}  // namespace tnp
