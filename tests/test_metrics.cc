// The metrics registry: the log-linear histogram's bucket layout and its
// percentiles against an exact nearest-rank oracle (cumulative and
// windowed), concurrent counter increments, snapshots racing Reset, gauge
// watermarks, reference stability across Reset, and the plain-text dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics.h"
#include "support/timeseries.h"

namespace tnp {
namespace support {
namespace metrics {
namespace {

/// Exact nearest-rank percentile over raw samples: the oracle every bucketed
/// estimate is held to.
double NearestRank(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(samples.size()))));
  return samples[rank - 1];
}

/// The layout's documented error bound around an exact value: 1/8 of it
/// from 1 up, below that less than 1.
double Bound(double exact) {
  return exact >= 1.0 ? kMaxRelativeError * exact : 1.0;
}

/// Seeded inputs of the shapes latency histograms see in practice.
std::vector<double> Samples(const std::string& shape, int n) {
  std::mt19937_64 rng(0x5eed + shape.size());
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    if (shape == "small") {
      out.push_back(std::uniform_real_distribution<double>(0.5, 16.0)(rng));
    } else if (shape == "uniform") {
      out.push_back(std::uniform_real_distribution<double>(20.0, 20000.0)(rng));
    } else if (shape == "lognormal") {
      out.push_back(std::lognormal_distribution<double>(std::log(800.0), 1.2)(rng));
    } else if (shape == "bimodal") {
      const bool slow = std::uniform_real_distribution<double>(0.0, 1.0)(rng) < 0.2;
      std::normal_distribution<double> mode(slow ? 30000.0 : 200.0, slow ? 3000.0 : 20.0);
      out.push_back(std::max(0.0, mode(rng)));
    } else {
      out.push_back(777.0);  // constant
    }
  }
  return out;
}

constexpr const char* kShapes[] = {"small", "uniform", "lognormal", "bimodal", "constant"};
constexpr double kPercentiles[] = {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0};

TEST(Metrics, BucketLayoutIsLogLinear) {
  for (int i = 0; i < kNumBuckets; ++i) {
    const double lower = BucketLowerBound(i);
    const double upper = BucketUpperBound(i);
    EXPECT_EQ(BucketOf(lower), i);
    EXPECT_EQ(BucketOf(std::nextafter(upper, 0.0)), i);
    if (i + 1 < kNumBuckets) {
      EXPECT_DOUBLE_EQ(upper, BucketLowerBound(i + 1));
    }
    // Past [0, 1), never wider than 1/8 of the lower bound.
    if (i > 0) {
      EXPECT_LE(upper - lower, kMaxRelativeError * lower) << i;
    }
  }
  EXPECT_EQ(BucketUpperBound(0), 1.0);
  for (int integer = 1; integer < 16; ++integer) {
    EXPECT_EQ(BucketLowerBound(BucketOf(integer)), integer);
  }
  EXPECT_GE(BucketLowerBound(kNumBuckets - 1), 1.2e7);
  EXPECT_EQ(BucketOf(1e12), kNumBuckets - 1);
  EXPECT_EQ(BucketOf(-5.0), 0);
  EXPECT_EQ(BucketOf(std::nan("")), 0);
}

TEST(Metrics, HistogramPercentilesTrackNearestRankOracle) {
  for (const char* shape : kShapes) {
    const std::vector<double> samples = Samples(shape, 20000);
    Histogram histogram;
    for (const double value : samples) histogram.Record(value);
    for (const double p : kPercentiles) {
      const double exact = NearestRank(samples, p);
      EXPECT_NEAR(histogram.Percentile(p), exact, Bound(exact)) << shape << " p" << p;
    }
    // Count, sum-derived mean and the extremes stay exact.
    const HistogramSummary summary = histogram.Summarize();
    EXPECT_EQ(summary.count, 20000) << shape;
    EXPECT_DOUBLE_EQ(summary.min, *std::min_element(samples.begin(), samples.end()));
    EXPECT_DOUBLE_EQ(summary.max, *std::max_element(samples.begin(), samples.end()));
    const double mean = std::accumulate(samples.begin(), samples.end(), 0.0) / 20000.0;
    EXPECT_NEAR(summary.mean, mean, 1e-9 * mean) << shape;
  }
}

TEST(Metrics, ConstantAndSmallIntegerPercentilesAreExact) {
  Histogram constant;
  for (int i = 0; i < 1000; ++i) constant.Record(777.0);
  for (const double p : kPercentiles) EXPECT_DOUBLE_EQ(constant.Percentile(p), 777.0);

  // Batch sizes and other small counts: every integer below 16 is a bucket
  // lower bound, and such buckets report it.
  std::mt19937_64 rng(7);
  std::vector<double> sizes;
  Histogram batch;
  for (int i = 0; i < 5000; ++i) {
    sizes.push_back(static_cast<double>(std::uniform_int_distribution<int>(1, 15)(rng)));
    batch.Record(sizes.back());
  }
  for (const double p : kPercentiles) {
    EXPECT_DOUBLE_EQ(batch.Percentile(p), NearestRank(sizes, p)) << "p" << p;
  }
}

TEST(Metrics, IntegerSeriesSummary) {
  Histogram histogram;
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) {
    histogram.Record(static_cast<double>(i));
    samples.push_back(static_cast<double>(i));
  }
  EXPECT_EQ(histogram.count(), 100);
  for (const double p : {50.0, 95.0, 99.0, 100.0}) {
    EXPECT_NEAR(histogram.Percentile(p), NearestRank(samples, p), Bound(NearestRank(samples, p)));
  }
  const HistogramSummary summary = histogram.Summarize();
  EXPECT_EQ(summary.count, 100);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  EXPECT_DOUBLE_EQ(summary.mean, 50.5);
  EXPECT_DOUBLE_EQ(summary.p99, histogram.Percentile(99));
  // Population stddev of 1..100: sqrt((100^2 - 1) / 12).
  EXPECT_NEAR(summary.stddev, std::sqrt((100.0 * 100.0 - 1.0) / 12.0), 1e-9);
}

TEST(Metrics, HistogramSingleSample) {
  Histogram histogram;
  histogram.Record(42.0);
  const HistogramSummary summary = histogram.Summarize();
  EXPECT_EQ(summary.count, 1);
  EXPECT_DOUBLE_EQ(summary.min, 42.0);
  EXPECT_DOUBLE_EQ(summary.max, 42.0);
  EXPECT_DOUBLE_EQ(summary.p50, 42.0);
  EXPECT_DOUBLE_EQ(summary.p99, 42.0);
  EXPECT_DOUBLE_EQ(summary.stddev, 0.0);
}

TEST(Metrics, SnapshotsSubtractAndMerge) {
  Histogram histogram;
  for (int i = 0; i < 300; ++i) histogram.Record(100.0 + i);
  const HistogramSnapshot first = histogram.Snapshot();
  for (int i = 0; i < 200; ++i) histogram.Record(5000.0 + i);
  const HistogramSnapshot second = histogram.Snapshot();

  HistogramSnapshot delta = second;
  delta -= first;
  EXPECT_EQ(delta.count, 200u);
  EXPECT_DOUBLE_EQ(delta.sum, second.sum - first.sum);
  EXPECT_NEAR(delta.min, 5000.0, Bound(5000.0));
  EXPECT_DOUBLE_EQ(delta.max, 5199.0) << "bucket edge, clamped to the exact cumulative max";
  EXPECT_NEAR(delta.Percentile(50), 5099.0, Bound(5099.0));

  HistogramSnapshot merged = first;
  merged += delta;
  EXPECT_EQ(merged.buckets, second.buckets);
  EXPECT_EQ(merged.count, second.count);
  EXPECT_DOUBLE_EQ(merged.min, second.min);
  EXPECT_DOUBLE_EQ(merged.max, second.max);
}

TEST(Metrics, WindowPercentilesTrackNearestRankOracle) {
  for (const char* shape : kShapes) {
    const std::string name = std::string("test/window/") + shape + "/us";
    Histogram& histogram = Registry::Global().GetHistogram(name);
    timeseries::Collector collector(timeseries::CollectorOptions{60});
    timeseries::LatencySeries& series = collector.TrackHistogram(name);
    collector.Tick(1);

    const std::vector<double> samples = Samples(shape, 10000);
    std::vector<double> last_second;
    for (int second = 0; second < 10; ++second) {
      last_second.assign(samples.begin() + second * 1000, samples.begin() + (second + 1) * 1000);
      for (const double value : last_second) histogram.Record(value);
      collector.Tick(2 + second);
    }

    const timeseries::WindowStats window = series.Summarize(10);
    EXPECT_EQ(window.count, 10000) << shape;
    const double mean = std::accumulate(samples.begin(), samples.end(), 0.0) / 10000.0;
    EXPECT_NEAR(window.mean, mean, 1e-9 * mean) << shape;
    const double p50 = NearestRank(samples, 50.0);
    const double p95 = NearestRank(samples, 95.0);
    const double p99 = NearestRank(samples, 99.0);
    EXPECT_NEAR(window.p50, p50, Bound(p50)) << shape;
    EXPECT_NEAR(window.p95, p95, Bound(p95)) << shape;
    EXPECT_NEAR(window.p99, p99, Bound(p99)) << shape;

    // The narrow window sees only the most recent second.
    const timeseries::WindowStats recent = series.Summarize(1);
    EXPECT_EQ(recent.count, 1000) << shape;
    const double recent_p99 = NearestRank(last_second, 99.0);
    EXPECT_NEAR(recent.p99, recent_p99, Bound(recent_p99)) << shape;
  }
}

TEST(Metrics, ConcurrentCounterIncrements) {
  Counter& counter = Registry::Global().GetCounter("test/concurrent_counter");
  counter.Reset();

  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter.value(), static_cast<std::int64_t>(kThreads) * kIncrements);
}

TEST(Metrics, ConcurrentHistogramRecords) {
  Histogram& histogram = Registry::Global().GetHistogram("test/concurrent_histogram");
  histogram.Reset();

  constexpr int kThreads = 4;
  constexpr int kRecords = 2500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kRecords; ++i) histogram.Record(1.0);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(histogram.count(), static_cast<std::int64_t>(kThreads) * kRecords);
  EXPECT_DOUBLE_EQ(histogram.Percentile(50), 1.0);
}

TEST(Metrics, ResetDuringTicksKeepsExtremesFinite) {
  // A Snapshot() racing Reset() can read the old buckets together with the
  // reset extremes (+inf / -inf). Snapshots and the windows built from
  // them must still report finite, ordered min/max and percentiles.
  const std::string name = "test/reset_race/us";
  Histogram& histogram = Registry::Global().GetHistogram(name);
  timeseries::Collector collector(timeseries::CollectorOptions{60});
  timeseries::LatencySeries& series = collector.TrackHistogram(name);

  std::atomic<bool> stop{false};
  std::thread recorder([&] {
    while (!stop.load()) {
      for (int i = 0; i < 20; ++i) histogram.Record(100.0 + i);
      histogram.Reset();
      std::this_thread::yield();
    }
  });
  const auto ordered = [](const HistogramSummary& summary) {
    return std::isfinite(summary.min) && std::isfinite(summary.max) &&
           summary.min <= summary.p50 && summary.p50 <= summary.p99 &&
           summary.p99 <= summary.max;
  };
  int checked = 0;
  int broken = 0;
  // Enough ticks to meet the race, and enough non-empty reads to mean it.
  for (std::int64_t tick = 0; tick < 5000 || checked < 1000; ++tick) {
    const HistogramSummary cumulative = histogram.Summarize();
    collector.Tick(1 + tick / 16);
    const HistogramSummary window = series.Merge(1).Summarize();
    for (const HistogramSummary& summary : {cumulative, window}) {
      if (summary.count == 0) continue;
      ++checked;
      if (!ordered(summary)) ++broken;
    }
  }
  stop.store(true);
  recorder.join();
  EXPECT_EQ(broken, 0) << "of " << checked << " non-empty snapshots and windows";
}

TEST(Metrics, GaugeTracksValueAndWatermark) {
  Gauge& gauge = Registry::Global().GetGauge("test/gauge");
  gauge.Reset();
  gauge.Set(3.0);
  gauge.Set(7.5);
  gauge.Set(2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 7.5);
  gauge.Add(5.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 7.5);
}

TEST(Metrics, RegistryReferencesStableAcrossReset) {
  Registry& registry = Registry::Global();
  Counter& a = registry.GetCounter("test/stable");
  Counter& b = registry.GetCounter("test/stable");
  EXPECT_EQ(&a, &b) << "find-or-create must return the same object";

  a.Increment(5);
  registry.Reset();
  EXPECT_EQ(a.value(), 0) << "Reset zeroes in place";
  a.Increment(2);
  EXPECT_EQ(registry.GetCounter("test/stable").value(), 2);
}

TEST(Metrics, FindReturnsNullForUnknownNames) {
  const Registry& registry = Registry::Global();
  EXPECT_EQ(registry.FindCounter("test/never_created"), nullptr);
  EXPECT_EQ(registry.FindGauge("test/never_created"), nullptr);
  EXPECT_EQ(registry.FindHistogram("test/never_created"), nullptr);
}

TEST(Metrics, DumpTextListsEveryMetric) {
  Registry& registry = Registry::Global();
  registry.GetCounter("test/dump_counter").Increment(3);
  registry.GetGauge("test/dump_gauge").Set(1.5);
  registry.GetHistogram("test/dump_histogram").Record(10.0);

  const std::string dump = registry.DumpText();
  EXPECT_NE(dump.find("test/dump_counter"), std::string::npos);
  EXPECT_NE(dump.find("test/dump_gauge"), std::string::npos);
  EXPECT_NE(dump.find("test/dump_histogram"), std::string::npos);
}

}  // namespace
}  // namespace metrics
}  // namespace support
}  // namespace tnp
