// Windowed time-series metrics: a fixed-size ring of per-second slots over
// which "what happened in the last N seconds?" queries are answered by
// merging slots on read — the live complement to metrics.h's cumulative
// since-process-start registry.
//
// Two series kinds share one ring (SecondRing):
//
//   - RateSeries: per-second event-count deltas of a monotonically growing
//     counter. Window queries answer rate (events/sec) and total delta.
//   - LatencySeries: per-second metrics::HistogramSnapshot deltas of a
//     registry histogram. A window is the sum of its seconds' bucket-count
//     deltas, so its percentiles come from the same HistogramSnapshot
//     routine (and carry the same error bound) as the registry's; its count
//     and mean (from sum deltas) are exact, its min/max bucket-precise.
//
// The Collector owns the clock: Tick() advances every series to the current
// second (zeroing slots that fell out of the ring) and pulls tracked
// registry metrics — the counter delta, and the difference between each
// tracked histogram's snapshot and the one taken at the previous Tick —
// into the current slot. The TelemetrySampler cadence thread calls Tick()
// each pass; tests drive Tick(now_sec) with synthetic time for determinism.
// Any metrics::Registry counter/histogram is trackable by name:
//
//   auto& lat = timeseries::Collector::Global().TrackHistogram("serve/request/us");
//   ... traffic ...
//   const timeseries::WindowStats w = lat.Summarize(10);   // last 10 seconds
//   // w.rate_per_sec, w.p50, w.p95, w.p99
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/metrics.h"

namespace tnp {
namespace support {
namespace timeseries {

/// Merged view over the last N seconds of a series.
struct WindowStats {
  std::int64_t count = 0;
  double rate_per_sec = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Ring of `window_seconds` per-second slots of T (a count, or a histogram
/// snapshot delta). Thread-safe; T needs `+=` and a zero default value.
template <typename T>
class SecondRing {
 public:
  explicit SecondRing(int window_seconds);

  /// Add `delta` to the slot for the current second.
  void Add(const T& delta);
  /// Rotate the ring forward to `now_sec`, zeroing slots that lapse.
  void Advance(std::int64_t now_sec);
  /// Sum of the last `seconds` slots (clamped to [1, ring size]).
  T Merge(int seconds) const;

  int window_seconds() const { return static_cast<int>(slots_.size()); }

 private:
  struct Slot {
    std::int64_t second = -1;  ///< epoch tag; -1 = never written
    T value{};
  };

  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
  std::int64_t now_sec_ = 0;
};

/// Per-second event-count deltas of one counter.
class RateSeries : public SecondRing<std::int64_t> {
 public:
  using SecondRing::SecondRing;

  /// Merge(seconds) / seconds: events per second over the window.
  double RateOver(int seconds) const;
};

/// Per-second histogram deltas of one "/us" metric; Merge(seconds) is the
/// window's HistogramSnapshot (what SLO burn rates read).
class LatencySeries : public SecondRing<metrics::HistogramSnapshot> {
 public:
  using SecondRing::SecondRing;

  /// Merge the last `seconds`: count, rate, mean, min/max and p50/p95/p99.
  WindowStats Summarize(int seconds) const;
};

struct CollectorOptions {
  /// Ring size: how far back window queries can reach.
  int window_seconds = 120;
};

/// Registry of windowed series, fed from the TelemetrySampler cadence.
class Collector {
 public:
  explicit Collector(CollectorOptions options = {});
  static Collector& Global();

  /// Track a metrics::Registry counter by name (find-or-create; the counter
  /// itself is created on first Tick if absent). The reference stays valid
  /// for the collector's lifetime.
  RateSeries& TrackCounter(const std::string& name);
  /// Track a registry latency histogram by name: each Tick adds the
  /// histogram's growth since the previous Tick to the ring. Samples
  /// recorded before tracking started stay out of the windows. A
  /// Registry::Reset() between ticks re-primes the baseline (that Tick adds
  /// nothing), as for counters.
  LatencySeries& TrackHistogram(const std::string& name);

  RateSeries* FindCounter(const std::string& name) const;
  LatencySeries* FindHistogram(const std::string& name) const;

  /// Advance every series to the current second (steady clock) and pull
  /// tracked counters/histograms from the registry.
  void Tick();
  /// Same with an injected clock — tests drive synthetic time. `now_sec`
  /// must not go backwards.
  void Tick(std::int64_t now_sec);

  std::int64_t now_sec() const;

  /// JSON document for the /timeseries debug endpoint: per tracked series,
  /// window stats over each of `windows` seconds.
  std::string ExportJson(const std::vector<int>& windows = {10, 60}) const;

 private:
  struct TrackedCounter {
    std::string name;
    std::unique_ptr<RateSeries> series;
    std::int64_t last_value = 0;
    bool primed = false;  ///< first Tick establishes the baseline
  };
  struct TrackedHistogram {
    std::string name;
    std::unique_ptr<LatencySeries> series;
    const metrics::Histogram* histogram = nullptr;  ///< resolved on first sight
    metrics::HistogramSnapshot last;  ///< cumulative at the previous Tick
  };

  void TickLocked(std::int64_t now_sec);

  CollectorOptions options_;
  mutable std::mutex mutex_;
  std::vector<TrackedCounter> counters_;
  std::vector<TrackedHistogram> histograms_;
  std::int64_t now_sec_ = 0;
  std::int64_t epoch_steady_ns_ = 0;  ///< steady_clock origin for Tick()
};

}  // namespace timeseries
}  // namespace support
}  // namespace tnp
