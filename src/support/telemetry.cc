#include "support/telemetry.h"

#include "support/metrics.h"
#include "support/profiler.h"
#include "support/timeseries.h"
#include "support/trace.h"

namespace tnp {
namespace support {

TelemetrySampler::TelemetrySampler(TelemetrySamplerOptions options)
    : options_(options) {}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void TelemetrySampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_ = true;
    cv_.notify_all();
  }
  thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void TelemetrySampler::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, options_.period, [this] { return stop_; })) return;
    }
    SampleOnce();
  }
}

void TelemetrySampler::SampleOnce() {
  if (options_.advance_timeseries) timeseries::Collector::Global().Tick();
  if (options_.sample_profiler) profiler::Profiler::Global().SampleOnce();
  // Entries() copies and sorts every metric name: only pay for it when the
  // counter tracks have somewhere to go.
  if (options_.publish_trace_counters && Tracer::Global().enabled()) {
    for (const metrics::MetricRef& ref : metrics::Registry::Global().Entries()) {
      if (ref.gauge != nullptr) {
        TNP_TRACE_COUNTER("telemetry", ref.name, ref.gauge->value());
      }
    }
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace support
}  // namespace tnp
