#include "support/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "support/logging.h"
#include "support/metrics.h"

namespace tnp {
namespace support {
namespace timeseries {

// -------------------------------------------------------------- SecondRing

template <typename T>
SecondRing<T>::SecondRing(int window_seconds) {
  TNP_CHECK(window_seconds > 0) << "time-series window must be positive";
  slots_.resize(static_cast<std::size_t>(window_seconds));
}

template <typename T>
void SecondRing<T>::Add(const T& delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slots_[static_cast<std::size_t>(now_sec_) % slots_.size()];
  if (slot.second != now_sec_) {
    slot.second = now_sec_;
    slot.value = T{};
  }
  slot.value += delta;
}

template <typename T>
void SecondRing<T>::Advance(std::int64_t now_sec) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (now_sec <= now_sec_) return;  // never rewind
  // Zero every second we skipped over (bounded by the ring size).
  const std::int64_t first =
      std::max(now_sec_ + 1, now_sec - static_cast<std::int64_t>(slots_.size()) + 1);
  for (std::int64_t s = first; s <= now_sec; ++s) {
    Slot& slot = slots_[static_cast<std::size_t>(s) % slots_.size()];
    slot.second = s;
    slot.value = T{};
  }
  now_sec_ = now_sec;
}

template <typename T>
T SecondRing<T>::Merge(int seconds) const {
  std::lock_guard<std::mutex> lock(mutex_);
  seconds = std::clamp<int>(seconds, 1, static_cast<int>(slots_.size()));
  T total{};
  for (int back = 0; back < seconds; ++back) {
    const std::int64_t s = now_sec_ - back;
    if (s < 0) break;
    const Slot& slot = slots_[static_cast<std::size_t>(s) % slots_.size()];
    if (slot.second == s) total += slot.value;
  }
  return total;
}

template class SecondRing<std::int64_t>;
template class SecondRing<metrics::HistogramSnapshot>;

double RateSeries::RateOver(int seconds) const {
  seconds = std::clamp<int>(seconds, 1, window_seconds());
  return static_cast<double>(Merge(seconds)) / static_cast<double>(seconds);
}

WindowStats LatencySeries::Summarize(int seconds) const {
  seconds = std::clamp<int>(seconds, 1, window_seconds());
  const metrics::HistogramSummary merged = Merge(seconds).Summarize();
  WindowStats stats;
  stats.count = merged.count;
  stats.rate_per_sec = static_cast<double>(merged.count) / static_cast<double>(seconds);
  stats.min = merged.min;
  stats.max = merged.max;
  stats.mean = merged.mean;
  stats.p50 = merged.p50;
  stats.p95 = merged.p95;
  stats.p99 = merged.p99;
  return stats;
}

// --------------------------------------------------------------- Collector

Collector::Collector(CollectorOptions options) : options_(options) {
  epoch_steady_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
}

Collector& Collector::Global() {
  static Collector* collector = new Collector();  // outlives static teardown
  return *collector;
}

RateSeries& Collector::TrackCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& tracked : counters_) {
    if (tracked.name == name) return *tracked.series;
  }
  TrackedCounter tracked;
  tracked.name = name;
  tracked.series = std::make_unique<RateSeries>(options_.window_seconds);
  tracked.series->Advance(now_sec_);
  counters_.push_back(std::move(tracked));
  return *counters_.back().series;
}

LatencySeries& Collector::TrackHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& tracked : histograms_) {
    if (tracked.name == name) return *tracked.series;
  }
  TrackedHistogram tracked;
  tracked.name = name;
  tracked.series = std::make_unique<LatencySeries>(options_.window_seconds);
  tracked.series->Advance(now_sec_);
  // Baseline: what the histogram already holds belongs to the cumulative
  // registry, not the window.
  tracked.histogram = metrics::Registry::Global().FindHistogram(name);
  if (tracked.histogram != nullptr) tracked.last = tracked.histogram->Snapshot();
  histograms_.push_back(std::move(tracked));
  return *histograms_.back().series;
}

RateSeries* Collector::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& tracked : counters_) {
    if (tracked.name == name) return tracked.series.get();
  }
  return nullptr;
}

LatencySeries* Collector::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& tracked : histograms_) {
    if (tracked.name == name) return tracked.series.get();
  }
  return nullptr;
}

void Collector::Tick() {
  const std::int64_t steady_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  std::lock_guard<std::mutex> lock(mutex_);
  TickLocked((steady_ns - epoch_steady_ns_) / 1'000'000'000);
}

void Collector::Tick(std::int64_t now_sec) {
  std::lock_guard<std::mutex> lock(mutex_);
  TickLocked(now_sec);
}

void Collector::TickLocked(std::int64_t now_sec) {
  if (now_sec > now_sec_) now_sec_ = now_sec;
  auto& registry = metrics::Registry::Global();
  for (auto& tracked : counters_) {
    tracked.series->Advance(now_sec_);
    const metrics::Counter* counter = registry.FindCounter(tracked.name);
    const std::int64_t value = counter != nullptr ? counter->value() : 0;
    if (!tracked.primed) {
      // First observation establishes the baseline: events before tracking
      // started belong to the cumulative registry, not the window.
      tracked.primed = true;
      tracked.last_value = value;
      continue;
    }
    if (value > tracked.last_value) {
      tracked.series->Add(value - tracked.last_value);
    } else if (value < tracked.last_value) {
      // Registry::Reset() rewound the counter; re-prime from the new base.
      tracked.last_value = value;
      continue;
    }
    tracked.last_value = value;
  }
  for (auto& tracked : histograms_) {
    tracked.series->Advance(now_sec_);
    if (tracked.histogram == nullptr) tracked.histogram = registry.FindHistogram(tracked.name);
    if (tracked.histogram == nullptr) continue;
    const metrics::HistogramSnapshot now = tracked.histogram->Snapshot();
    bool rewound = false;  // Registry::Reset() since the last Tick: re-prime
    for (int i = 0; i < metrics::kNumBuckets; ++i) {
      rewound = rewound || now.buckets[i] < tracked.last.buckets[i];
    }
    if (!rewound) {
      metrics::HistogramSnapshot delta = now;
      delta -= tracked.last;
      if (delta.count > 0) tracked.series->Add(delta);
    }
    tracked.last = now;
  }
}

std::int64_t Collector::now_sec() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return now_sec_;
}

std::string Collector::ExportJson(const std::vector<int>& windows) const {
  const auto number = [](double value) {
    if (!std::isfinite(value)) return std::string("0");
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return std::string(buffer);
  };
  const auto quote = [](const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  };

  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"now_sec\":" + std::to_string(now_sec_) +
                    ",\"window_sec\":" + std::to_string(options_.window_seconds) +
                    ",\"counters\":{";
  bool first = true;
  for (const auto& tracked : counters_) {
    if (!first) out += ",";
    first = false;
    out += quote(tracked.name) + ":{";
    bool first_window = true;
    for (const int w : windows) {
      if (!first_window) out += ",";
      first_window = false;
      out += quote(std::to_string(w) + "s") + ":{\"delta\":" +
             std::to_string(tracked.series->Merge(w)) +
             ",\"rate_per_sec\":" + number(tracked.series->RateOver(w)) + "}";
    }
    out += "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& tracked : histograms_) {
    if (!first) out += ",";
    first = false;
    out += quote(tracked.name) + ":{";
    bool first_window = true;
    for (const int w : windows) {
      if (!first_window) out += ",";
      first_window = false;
      const WindowStats stats = tracked.series->Summarize(w);
      out += quote(std::to_string(w) + "s") + ":{\"count\":" +
             std::to_string(stats.count) +
             ",\"rate_per_sec\":" + number(stats.rate_per_sec) +
             ",\"min\":" + number(stats.min) + ",\"max\":" + number(stats.max) +
             ",\"mean\":" + number(stats.mean) + ",\"p50\":" + number(stats.p50) +
             ",\"p95\":" + number(stats.p95) + ",\"p99\":" + number(stats.p99) + "}";
    }
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace timeseries
}  // namespace support
}  // namespace tnp
