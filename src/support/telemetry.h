// Periodic telemetry sampler: a background thread that, on a fixed cadence,
// drives the periodic observers of the process:
//
//   - every gauge (queue depths, session-pool occupancy, arena bytes) is
//     emitted as a Chrome-trace counter track, so the exported trace shows
//     queue depth / pool in-flight / arena high-watermark over time;
//   - the windowed time-series collector (timeseries.h) is ticked, which is
//     where recent-traffic percentiles live (registry histograms carry the
//     cumulative ones);
//   - the always-on sampling profiler takes one sample.
//
// The sampler is passive observation only: it never resets a metric and
// publishes nothing into the registry.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace tnp {
namespace support {

struct TelemetrySamplerOptions {
  std::chrono::milliseconds period{50};
  /// Gauges -> Chrome-trace counter tracks (requires the tracer enabled).
  bool publish_trace_counters = true;
  /// Advance the windowed time-series collector (timeseries.h) each pass,
  /// making the sampler cadence the clock that fills the per-second ring.
  /// Turn off when something else owns Collector::Tick (a test's injected
  /// clock, or a HealthMonitor with auto_tick_collector).
  bool advance_timeseries = true;
  /// Drive the always-on sampling profiler (profiler.h) each pass: one
  /// alloc-free Profiler::SampleOnce() folding every registered thread's
  /// published stack. This is what makes the profiler "always on" — any
  /// process running a TelemetrySampler is being profiled.
  bool sample_profiler = true;
};

class TelemetrySampler {
 public:
  explicit TelemetrySampler(TelemetrySamplerOptions options = {});
  ~TelemetrySampler();  ///< Stops the thread if running.

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Start the cadence thread (idempotent).
  void Start();
  /// Stop and join (idempotent; safe without Start).
  void Stop();

  /// One synchronous sampling pass — what the thread runs every period.
  /// Public so tests and exit paths can sample deterministically.
  void SampleOnce();

  /// Completed sampling passes (thread + manual).
  std::uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  TelemetrySamplerOptions options_;
  std::atomic<std::uint64_t> samples_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace support
}  // namespace tnp
