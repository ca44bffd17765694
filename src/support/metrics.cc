#include "support/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace tnp {
namespace support {
namespace metrics {

namespace {

void AtomicMin(std::atomic<double>& target, double value) {
  double observed = target.load(std::memory_order_relaxed);
  while (value < observed &&
         !target.compare_exchange_weak(observed, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double observed = target.load(std::memory_order_relaxed);
  while (value > observed &&
         !target.compare_exchange_weak(observed, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ------------------------------------------------------------------ Gauge

void Gauge::Set(double value) {
  value_.store(value, std::memory_order_relaxed);
  AtomicMax(max_, value);
}

void Gauge::Add(double delta) {
  double observed = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(observed, observed + delta,
                                       std::memory_order_relaxed)) {
  }
  Set(value_.load(std::memory_order_relaxed));  // refresh the watermark
}

double Gauge::value() const { return value_.load(std::memory_order_relaxed); }

double Gauge::max() const { return max_.load(std::memory_order_relaxed); }

void Gauge::Reset() {
  value_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------- bucket layout

namespace {

/// 2^24: where the last octave ends and the overflow bucket begins.
constexpr double kBucketedLimit = static_cast<double>(std::uint64_t{1} << kOctaves);
constexpr int kSubBucketBits = 3;
static_assert(1 << kSubBucketBits == kSubBuckets);
constexpr int kMantissaBits = 52;  // IEEE-754 double
constexpr int kExponentBias = 1023;

/// Bucket 0 is 1 wide; octave [2^e, 2^(e+1)) has buckets 2^(e-3) wide.
double BucketWidth(int bucket) {
  if (bucket == 0) return 1.0;
  return std::ldexp(1.0, (bucket - 1) / kSubBuckets - kSubBucketBits);
}

/// Bucket edges as ranges of values: bucket 0 also holds negatives, the
/// last bucket everything past 2^24.
double LowerEdge(int bucket) {
  return bucket == 0 ? -std::numeric_limits<double>::infinity() : BucketLowerBound(bucket);
}
double UpperEdge(int bucket) {
  return bucket == kNumBuckets - 1 ? std::numeric_limits<double>::infinity()
                                   : BucketUpperBound(bucket);
}

/// Pulls min/max into the lowest/highest non-empty bucket. Exact extremes
/// already lie there; a window's are only known to the bucket, and a
/// snapshot read while Reset() ran can pair old buckets with reset extremes.
void ClampExtremes(HistogramSnapshot& snapshot) {
  int lowest = 0;
  while (snapshot.buckets[lowest] == 0) ++lowest;
  int highest = kNumBuckets - 1;
  while (snapshot.buckets[highest] == 0) --highest;
  snapshot.min = std::clamp(snapshot.min, LowerEdge(lowest), UpperEdge(lowest));
  snapshot.max = std::clamp(snapshot.max, LowerEdge(highest), UpperEdge(highest));
  if (!(snapshot.min <= snapshot.max)) {  // both were reset: fall back to the edges
    snapshot.min = BucketLowerBound(lowest);
    snapshot.max = BucketUpperBound(highest);
  }
}

}  // namespace

int BucketOf(double value) {
  if (!(value >= 1.0)) return 0;
  if (value >= kBucketedLimit) return kNumBuckets - 1;
  // A double's biased exponent and top three mantissa bits are adjacent, so
  // one shift yields (e + bias) * 8 + sub for a value in octave e.
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const auto exponent_and_sub = static_cast<int>(bits >> (kMantissaBits - kSubBucketBits));
  return 1 + exponent_and_sub - kExponentBias * kSubBuckets;
}

double BucketLowerBound(int bucket) {
  if (bucket == 0) return 0.0;
  const int sub = (bucket - 1) % kSubBuckets;
  return static_cast<double>(kSubBuckets + sub) * BucketWidth(bucket);
}

double BucketUpperBound(int bucket) {
  return BucketLowerBound(bucket) + BucketWidth(bucket);
}

// ------------------------------------------------------ HistogramSnapshot

HistogramSnapshot& HistogramSnapshot::operator+=(const HistogramSnapshot& other) {
  if (other.count == 0) return *this;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  for (int i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
  sum_sq += other.sum_sq;
  return *this;
}

HistogramSnapshot& HistogramSnapshot::operator-=(const HistogramSnapshot& earlier) {
  for (int i = 0; i < kNumBuckets; ++i) buckets[i] -= earlier.buckets[i];
  count -= earlier.count;
  sum -= earlier.sum;
  sum_sq -= earlier.sum_sq;
  if (count == 0) {
    *this = HistogramSnapshot{};
    return *this;
  }
  ClampExtremes(*this);
  return *this;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(count)));
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0 || static_cast<double>(cumulative + in_bucket) < rank) {
      cumulative += in_bucket;
      continue;
    }
    // Buckets at most 1 wide report their lower bound, so integer samples
    // stay exact. In wider ones the samples spread evenly over the width;
    // the overflow bucket stretches to the observed max.
    double value = BucketLowerBound(i);
    if (BucketWidth(i) > 1.0) {
      const double upper = i == kNumBuckets - 1 ? std::max(BucketUpperBound(i), max)
                                                : BucketUpperBound(i);
      const double within = (rank - static_cast<double>(cumulative) - 0.5) /
                            static_cast<double>(in_bucket);
      value += within * (upper - value);
    }
    return std::min(std::max(value, min), max);
  }
  return max;
}

double HistogramSnapshot::FractionBelow(double threshold) const {
  if (count == 0) return 1.0;
  const int bucket = BucketOf(threshold);
  double below = 0.0;
  for (int i = 0; i < bucket; ++i) below += static_cast<double>(buckets[i]);
  const double lower = BucketLowerBound(bucket);
  const double within =
      std::clamp((threshold - lower) / (BucketUpperBound(bucket) - lower), 0.0, 1.0);
  below += within * static_cast<double>(buckets[bucket]);
  return below / static_cast<double>(count);
}

HistogramSummary HistogramSnapshot::Summarize() const {
  HistogramSummary summary;
  summary.count = static_cast<std::int64_t>(count);
  if (count == 0) return summary;
  summary.min = min;
  summary.max = max;
  const double n = static_cast<double>(count);
  summary.mean = sum / n;
  summary.stddev = std::sqrt(std::max(0.0, sum_sq / n - summary.mean * summary.mean));
  summary.p50 = Percentile(50.0);
  summary.p95 = Percentile(95.0);
  summary.p99 = Percentile(99.0);
  return summary;
}

// -------------------------------------------------------------- Histogram

void Histogram::Record(double value) {
  AtomicMin(min_, value);
  AtomicMax(max_, value);
  sum_.fetch_add(value, std::memory_order_relaxed);
  sum_sq_.fetch_add(value * value, std::memory_order_relaxed);
  // Release: a Snapshot() that sees this count also sees min/max above.
  buckets_[static_cast<std::size_t>(BucketOf(value))].fetch_add(1, std::memory_order_release);
}

std::int64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) total += bucket.load(std::memory_order_relaxed);
  return static_cast<std::int64_t>(total);
}

double Histogram::Percentile(double p) const { return Snapshot().Percentile(p); }

HistogramSummary Histogram::Summarize() const { return Snapshot().Summarize(); }

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  for (int i = 0; i < kNumBuckets; ++i) {
    snapshot.buckets[i] = buckets_[static_cast<std::size_t>(i)].load(std::memory_order_acquire);
    snapshot.count += snapshot.buckets[i];
  }
  if (snapshot.count == 0) return snapshot;
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.sum_sq = sum_sq_.load(std::memory_order_relaxed);
  snapshot.min = min_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  ClampExtremes(snapshot);
  return snapshot;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  sum_sq_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

// --------------------------------------------------------------- Registry

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // never destroyed: metric
  return *registry;                            // refs outlive static teardown
}

Registry::Entry& Registry::Find(const std::string& name) {
  for (auto& [entry_name, entry] : entries_) {
    if (entry_name == name) return entry;
  }
  entries_.emplace_back(name, Entry{});
  return entries_.back().second;
}

const Registry::Entry* Registry::FindConst(const std::string& name) const {
  for (const auto& [entry_name, entry] : entries_) {
    if (entry_name == name) return &entry;
  }
  return nullptr;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = Find(name);
  if (entry.counter == nullptr) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = Find(name);
  if (entry.gauge == nullptr) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = Find(name);
  if (entry.histogram == nullptr) entry.histogram = std::make_unique<Histogram>();
  return *entry.histogram;
}

const Counter* Registry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry* entry = FindConst(name);
  return entry != nullptr ? entry->counter.get() : nullptr;
}

const Gauge* Registry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry* entry = FindConst(name);
  return entry != nullptr ? entry->gauge.get() : nullptr;
}

const Histogram* Registry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry* entry = FindConst(name);
  return entry != nullptr ? entry->histogram.get() : nullptr;
}

void Registry::DumpText(std::ostream& os) const {
  std::vector<std::pair<std::string, const Entry*>> sorted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sorted.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) sorted.emplace_back(name, &entry);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [name, entry] : sorted) {
    if (entry->counter != nullptr) {
      os << "counter   " << name << " = " << entry->counter->value() << "\n";
    }
    if (entry->gauge != nullptr) {
      os << "gauge     " << name << " = " << entry->gauge->value()
         << " (max " << entry->gauge->max() << ")\n";
    }
    if (entry->histogram != nullptr) {
      const HistogramSummary s = entry->histogram->Summarize();
      os << "histogram " << name << " count=" << s.count << " min=" << s.min
         << " p50=" << s.p50 << " p95=" << s.p95 << " p99=" << s.p99 << " max=" << s.max
         << " mean=" << s.mean << " stddev=" << s.stddev << "\n";
    }
  }
}

std::string Registry::DumpText() const {
  std::ostringstream os;
  DumpText(os);
  return os.str();
}

std::vector<MetricRef> Registry::Entries() const {
  std::vector<MetricRef> refs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    refs.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      MetricRef ref;
      ref.name = name;
      ref.counter = entry.counter.get();
      ref.gauge = entry.gauge.get();
      ref.histogram = entry.histogram.get();
      refs.push_back(std::move(ref));
    }
  }
  std::sort(refs.begin(), refs.end(),
            [](const MetricRef& a, const MetricRef& b) { return a.name < b.name; });
  return refs;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

// ------------------------------------------------------------- exporters

namespace {

/// Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*, prefixed "tnp_".
std::string PrometheusName(const std::string& name) {
  std::string out = "tnp_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Prometheus sample values: plain decimal (never scientific for the common
/// integral case, which keeps the exposition greppable).
std::string PrometheusValue(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  std::ostringstream os;
  os << value;
  return os.str();
}

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string ExportPrometheus(const Registry& registry) {
  std::string out;
  // Entries() iterates in sorted-name order, so the exposition is
  // deterministic and diffable run to run. The HELP text is the metric's
  // original slash-separated registry name — the mapping a scraper needs to
  // get back to the in-process name.
  for (const MetricRef& ref : registry.Entries()) {
    const std::string name = PrometheusName(ref.name);
    if (ref.counter != nullptr) {
      out += "# HELP " + name + " " + ref.name + "\n";
      out += "# TYPE " + name + " counter\n";
      out += name + " " + std::to_string(ref.counter->value()) + "\n";
    }
    if (ref.gauge != nullptr) {
      out += "# HELP " + name + " " + ref.name + "\n";
      out += "# TYPE " + name + " gauge\n";
      out += name + " " + PrometheusValue(ref.gauge->value()) + "\n";
      out += "# HELP " + name + "_max high-watermark of " + ref.name + "\n";
      out += "# TYPE " + name + "_max gauge\n";
      out += name + "_max " + PrometheusValue(ref.gauge->max()) + "\n";
    }
    if (ref.histogram != nullptr) {
      const HistogramSummary s = ref.histogram->Summarize();
      out += "# HELP " + name + " " + ref.name + "\n";
      out += "# TYPE " + name + " summary\n";
      out += name + "{quantile=\"0.5\"} " + PrometheusValue(s.p50) + "\n";
      out += name + "{quantile=\"0.95\"} " + PrometheusValue(s.p95) + "\n";
      out += name + "{quantile=\"0.99\"} " + PrometheusValue(s.p99) + "\n";
      out += name + "_sum " + PrometheusValue(s.mean * static_cast<double>(s.count)) + "\n";
      out += name + "_count " + std::to_string(s.count) + "\n";
    }
  }
  return out;
}

std::string ExportJson(const Registry& registry) {
  const std::vector<MetricRef> refs = registry.Entries();
  std::string out = "{";

  const auto append_section = [&out, &refs](const char* section,
                                            const auto& member_of,
                                            const auto& render) {
    AppendJsonString(out, section);
    out += ":{";
    bool first = true;
    for (const MetricRef& ref : refs) {
      if (member_of(ref) == nullptr) continue;
      if (!first) out += ",";
      first = false;
      AppendJsonString(out, ref.name);
      out += ":";
      render(*member_of(ref));
    }
    out += "}";
  };

  append_section(
      "counters", [](const MetricRef& r) { return r.counter; },
      [&out](const Counter& c) { out += std::to_string(c.value()); });
  out += ",";
  append_section(
      "gauges", [](const MetricRef& r) { return r.gauge; },
      [&out](const Gauge& g) {
        out += "{\"value\":" + JsonNumber(g.value()) + ",\"max\":" + JsonNumber(g.max()) +
               "}";
      });
  out += ",";
  append_section(
      "histograms", [](const MetricRef& r) { return r.histogram; },
      [&out](const Histogram& h) {
        const HistogramSummary s = h.Summarize();
        out += "{\"count\":" + std::to_string(s.count) +
               ",\"min\":" + JsonNumber(s.min) + ",\"max\":" + JsonNumber(s.max) +
               ",\"mean\":" + JsonNumber(s.mean) + ",\"stddev\":" + JsonNumber(s.stddev) +
               ",\"p50\":" + JsonNumber(s.p50) + ",\"p95\":" + JsonNumber(s.p95) +
               ",\"p99\":" + JsonNumber(s.p99) + "}";
      });
  out += "}";
  return out;
}

}  // namespace metrics
}  // namespace support
}  // namespace tnp
