// The serving health & SLO layer: windowed time-series metrics, burn-rate
// alerting, the health state machine (with admission tightening and the
// one-shot flight-recorder trigger), and the /healthz + /metrics debug HTTP
// endpoint probed over loopback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/flows.h"
#include "frontend/common.h"
#include "serve/health.h"
#include "serve/server.h"
#include "support/debug_http.h"
#include "support/error.h"
#include "support/flight_recorder.h"
#include "support/metrics.h"
#include "support/slo.h"
#include "support/telemetry.h"
#include "support/timeseries.h"
#include "support/trace.h"

// ---------------------------------------------------------------------------
// Global allocation counter: proves the time-series record path performs no
// heap allocation in steady state (the same discipline the serving hot path
// already follows for tensors).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tnp {
namespace {

using frontend::TypedCall;
using frontend::TypedVar;
using frontend::WeightF32;
using frontend::ZeroBiasF32;
using serve::HealthMonitor;
using serve::HealthOptions;
using serve::HealthSignals;
using serve::HealthState;
using support::metrics::Registry;
using support::timeseries::Collector;
using support::timeseries::CollectorOptions;
using support::timeseries::LatencySeries;
using support::timeseries::RateSeries;
using support::timeseries::WindowStats;

// ---------------------------------------------------------------------------
// RateSeries / LatencySeries
// ---------------------------------------------------------------------------

TEST(TimeSeries, RateWindowsMergeAndExpire) {
  RateSeries series(10);
  series.Add(5);  // second 0
  series.Advance(1);
  series.Add(3);  // second 1
  series.Advance(2);
  series.Add(2);  // second 2

  EXPECT_EQ(series.Merge(1), 2);
  EXPECT_EQ(series.Merge(2), 5);
  EXPECT_EQ(series.Merge(10), 10);
  EXPECT_DOUBLE_EQ(series.RateOver(2), 2.5);

  // 12 seconds later every bucket above lapsed out of the 10s ring.
  series.Advance(14);
  EXPECT_EQ(series.Merge(10), 0);
  // Requests wider than the ring clamp to the ring.
  series.Add(7);
  EXPECT_EQ(series.Merge(1000), 7);
}

TEST(TimeSeries, LatencyWindowExpires) {
  auto& histogram = Registry::Global().GetHistogram("tshealth/expire/us");
  Collector collector(CollectorOptions{5});
  LatencySeries& series = collector.TrackHistogram("tshealth/expire/us");
  for (int i = 0; i < 100; ++i) histogram.Record(200.0);
  collector.Tick(1);
  EXPECT_EQ(series.Summarize(5).count, 100);
  EXPECT_DOUBLE_EQ(series.Merge(5).FractionBelow(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(series.Merge(5).FractionBelow(100.0), 0.0);
  collector.Tick(20);
  EXPECT_EQ(series.Summarize(5).count, 0);
  EXPECT_DOUBLE_EQ(series.Merge(5).FractionBelow(1000.0), 1.0) << "empty = no violations";
}

TEST(TimeSeries, RecordAndTickDoNotAllocate) {
  // Past the 65 536 samples a raw-sample histogram used to keep: the record
  // path stays allocation-free however long the process runs, and so does
  // turning the registry histogram into per-second window deltas.
  auto& histogram = Registry::Global().GetHistogram("tshealth/noalloc/us");
  Collector collector(CollectorOptions{30});
  collector.TrackHistogram("tshealth/noalloc/us");
  collector.TrackCounter("tshealth/noalloc/events");
  collector.Tick(1);

  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 200000; ++i) {
    histogram.Record(static_cast<double>(50 + (i % 100000)));
    if (i % 20000 == 0) collector.Tick(2 + i / 20000);
  }
  const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "record and tick paths must stay allocation-free";
  EXPECT_EQ(histogram.count(), 200000);
}

TEST(TimeSeries, CollectorPullsCounterDeltasAndHistogramSamples) {
  auto& registry = Registry::Global();
  auto& counter = registry.GetCounter("tshealth/events");
  auto& histogram = registry.GetHistogram("tshealth/lat/us");

  Collector collector(CollectorOptions{30});
  RateSeries& events = collector.TrackCounter("tshealth/events");
  LatencySeries& latency = collector.TrackHistogram("tshealth/lat/us");

  counter.Increment(100);     // before the first Tick: baseline, not window
  collector.Tick(1);          // primes
  counter.Increment(10);
  histogram.Record(500.0);
  histogram.Record(600.0);
  collector.Tick(2);
  counter.Increment(4);
  histogram.Record(700.0);
  collector.Tick(3);

  EXPECT_EQ(events.Merge(1), 4) << "only the last second's delta";
  EXPECT_EQ(events.Merge(10), 14) << "baseline before priming excluded";
  const WindowStats stats = latency.Summarize(10);
  EXPECT_EQ(stats.count, 3);
  EXPECT_DOUBLE_EQ(stats.mean, 600.0) << "window mean comes from exact sum deltas";
  // A window's extremes are known to bucket precision.
  EXPECT_NEAR(stats.min, 500.0, 500.0 * support::metrics::kMaxRelativeError);
  EXPECT_NEAR(stats.max, 700.0, 700.0 * support::metrics::kMaxRelativeError);
  EXPECT_EQ(latency.Summarize(1).count, 1);

  // ExportJson carries every tracked series with per-window stats.
  const std::string json = collector.ExportJson({10});
  EXPECT_NE(json.find("\"tshealth/events\""), std::string::npos);
  EXPECT_NE(json.find("\"tshealth/lat/us\""), std::string::npos);
  EXPECT_NE(json.find("\"10s\""), std::string::npos);
}

TEST(TimeSeries, TruthfulPastTheOldSampleCap) {
  // Regression: a histogram that kept only its first 65 536 raw samples
  // froze registry p99, the windows and SLO burn after ~3 s of serving.
  auto& histogram = Registry::Global().GetHistogram("tshealth/uptime/us");
  Collector collector(CollectorOptions{120});
  support::slo::SloTracker tracker({}, &collector);
  support::slo::Objective objective;
  objective.name = "tshealth-uptime";
  objective.target = 0.999;
  objective.histogram = "tshealth/uptime/us";
  objective.threshold_us = 1000.0;
  tracker.AddObjective(objective);

  collector.Tick(1);
  for (int i = 0; i < 70000; ++i) histogram.Record(10.0);
  collector.Tick(2);
  for (int i = 0; i < 1000; ++i) histogram.Record(5000.0);
  collector.Tick(3);

  EXPECT_NEAR(histogram.Percentile(99.0), 5000.0, 5000.0 / 8.0)
      << "registry p99 must see the late slow burst";
  EXPECT_EQ(collector.FindHistogram("tshealth/uptime/us")->Summarize(1).count, 1000)
      << "the last second's window holds the burst";
  const auto statuses = tracker.Evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_GT(statuses[0].burn_short, 0.0) << "the SLO must burn on the burst";
}

TEST(TimeSeries, ConcurrentRecordsAndTicksLoseNothing) {
  auto& histogram = Registry::Global().GetHistogram("tshealth/concurrent/us");
  Collector collector(CollectorOptions{120});
  LatencySeries& series = collector.TrackHistogram("tshealth/concurrent/us");

  constexpr int kThreads = 4;
  constexpr int kRecords = 50000;
  std::atomic<int> running{kThreads};
  std::thread ticker([&] {
    // Injected clock: many ticks per second, a new second every 64 ticks,
    // never past the ring.
    for (std::int64_t tick = 0; running.load() > 0; ++tick) {
      collector.Tick(std::min<std::int64_t>(1 + tick / 64, 100));
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&histogram, &running, t] {
      for (int i = 0; i < kRecords; ++i) {
        histogram.Record(static_cast<double>(1 + (i * (t + 1)) % 40000));
      }
      running.fetch_sub(1);
    });
  }
  for (auto& recorder : recorders) recorder.join();
  ticker.join();
  collector.Tick(collector.now_sec());  // pull whatever landed after the last tick

  EXPECT_EQ(histogram.count(), static_cast<std::int64_t>(kThreads) * kRecords);
  EXPECT_EQ(series.Summarize(120).count, histogram.count())
      << "snapshot deltas must neither lose nor double-count a record";
}

TEST(TimeSeries, RegistryResetRePrimesHistogramBaseline) {
  auto& histogram = Registry::Global().GetHistogram("tshealth/reset/us");
  Collector collector(CollectorOptions{60});
  LatencySeries& series = collector.TrackHistogram("tshealth/reset/us");
  collector.Tick(1);
  for (int i = 0; i < 500; ++i) histogram.Record(300.0);
  collector.Tick(2);
  ASSERT_EQ(series.Summarize(60).count, 500);

  Registry::Global().Reset();
  for (int i = 0; i < 20; ++i) histogram.Record(40.0);
  collector.Tick(3);  // sees the rewind: re-primes, adds nothing
  for (int i = 0; i < 7; ++i) histogram.Record(40.0);
  collector.Tick(4);

  EXPECT_EQ(series.Summarize(1).count, 7) << "deltas resume from the new baseline";
  EXPECT_EQ(series.Summarize(60).count, 507) << "no negative counts from the rewind";
  const support::metrics::HistogramSnapshot window = series.Merge(60);
  for (const std::uint64_t bucket : window.buckets) EXPECT_LE(bucket, 507u);
}

// ---------------------------------------------------------------------------
// SLO burn rates
// ---------------------------------------------------------------------------

TEST(Slo, AvailabilityBurnUsesMultiwindowAnd) {
  auto& registry = Registry::Global();
  auto& bad = registry.GetCounter("slotest/shed");
  auto& total = registry.GetCounter("slotest/submitted");

  Collector collector(CollectorOptions{120});
  support::slo::SloTrackerOptions options;
  options.warning_burn = 1.0;
  options.critical_burn = 6.0;
  support::slo::SloTracker tracker(options, &collector);

  support::slo::Objective objective;
  objective.name = "slotest-availability";
  objective.target = 0.99;  // 1% error budget
  objective.bad_counter = "slotest/shed";
  objective.total_counter = "slotest/submitted";
  objective.short_window_s = 5;
  objective.long_window_s = 60;
  tracker.AddObjective(objective);

  collector.Tick(1);  // prime baselines

  // Clean traffic: no burn.
  total.Increment(1000);
  collector.Tick(2);
  auto statuses = tracker.Evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_DOUBLE_EQ(statuses[0].burn_short, 0.0);
  EXPECT_EQ(statuses[0].alert, support::slo::AlertState::kOk);

  // A severe shed spike: 50% of submissions shed = 50x the 1% budget. The
  // short window confirms immediately; the long window includes the clean
  // 1000 so it burns less but still far above critical.
  total.Increment(1000);
  bad.Increment(500);
  collector.Tick(3);
  statuses = tracker.Evaluate();
  EXPECT_GT(statuses[0].burn_short, 6.0);
  EXPECT_GT(statuses[0].burn_long, 6.0);
  EXPECT_EQ(statuses[0].alert, support::slo::AlertState::kCritical);
  EXPECT_GT(tracker.worst_burn(), 6.0);
  EXPECT_EQ(tracker.worst_alert(), support::slo::AlertState::kCritical);

  // 10 quiet seconds: the short window is clean, so multiwindow AND clears
  // the alert even though the long window still remembers the spike.
  collector.Tick(13);
  statuses = tracker.Evaluate();
  EXPECT_DOUBLE_EQ(statuses[0].burn_short, 0.0);
  EXPECT_GT(statuses[0].burn_long, 0.0);
  EXPECT_EQ(statuses[0].alert, support::slo::AlertState::kOk)
      << "effective burn is min(short, long)";

  // Transitions were counted (Ok -> Critical -> Ok).
  const auto* transitions =
      registry.FindCounter("health/slo/slotest-availability/transitions");
  ASSERT_NE(transitions, nullptr);
  EXPECT_EQ(transitions->value(), 2);
  const auto* worst = registry.FindGauge("health/slo/worst_burn");
  ASSERT_NE(worst, nullptr);
}

TEST(Slo, LatencyObjectiveBurnsWhenThresholdExceeded) {
  auto& histogram = Registry::Global().GetHistogram("slotest/lat/us");

  Collector collector(CollectorOptions{120});
  support::slo::SloTracker tracker({}, &collector);
  support::slo::Objective objective;
  objective.name = "slotest-latency";
  objective.target = 0.9;  // 10% budget
  objective.histogram = "slotest/lat/us";
  objective.threshold_us = 1000.0;
  tracker.AddObjective(objective);
  EXPECT_EQ(tracker.num_objectives(), 1u);

  collector.Tick(1);
  for (int i = 0; i < 90; ++i) histogram.Record(100.0);    // good
  for (int i = 0; i < 10; ++i) histogram.Record(50000.0);  // bad: 10% = burn 1.0
  collector.Tick(2);
  auto statuses = tracker.Evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_NEAR(statuses[0].burn_short, 1.0, 0.3) << "10% violations / 10% budget";
  EXPECT_NEAR(statuses[0].burn_long, 1.0, 0.3);
}

TEST(Slo, EvaluateBuildsNoMetricNames) {
  // The health/slo/<name>/* metrics are resolved once, in AddObjective, so
  // an evaluation allocates only the returned vector. The names fit the
  // small-string buffer, so copying them into the statuses allocates nothing.
  auto& registry = Registry::Global();
  registry.GetCounter("slotest/na/bad");
  registry.GetCounter("slotest/na/total");
  registry.GetHistogram("slotest/na/us");
  Collector collector(CollectorOptions{120});
  support::slo::SloTracker tracker({}, &collector);
  support::slo::Objective availability;
  availability.name = "na-avail";
  availability.bad_counter = "slotest/na/bad";
  availability.total_counter = "slotest/na/total";
  tracker.AddObjective(availability);
  support::slo::Objective latency;
  latency.name = "na-latency";
  latency.histogram = "slotest/na/us";
  latency.threshold_us = 1000.0;
  tracker.AddObjective(latency);
  collector.Tick(1);
  tracker.Evaluate();

  constexpr int kEvaluations = 100;
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kEvaluations; ++i) tracker.Evaluate();
  const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, kEvaluations) << "one allocation (the result) per Evaluate()";
  EXPECT_NE(registry.FindGauge("health/slo/na-avail/burn_short"), nullptr);
  EXPECT_NE(registry.FindGauge("health/slo/na-latency/alert"), nullptr);
}

TEST(TelemetrySampler, SampleWithTracerOffDoesNotAllocate) {
  // With the tracer off the gauges have no counter track to go to, so a
  // pass must not copy the registry's names; ticking the collector and
  // sampling the profiler are allocation-free too.
  ASSERT_FALSE(support::Tracer::Global().enabled());
  auto& registry = Registry::Global();
  for (int i = 0; i < 120; ++i) {
    registry.GetGauge("telemetrytest/gauge_" + std::to_string(i)).Set(i);
  }
  support::TelemetrySampler sampler;  // default options, never started
  sampler.SampleOnce();
  sampler.SampleOnce();

  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) sampler.SampleOnce();
  const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "a tracer-off sampling pass must stay allocation-free";
  EXPECT_EQ(sampler.samples(), 102u);
}

// ---------------------------------------------------------------------------
// Health state machine (injected signals: fully deterministic)
// ---------------------------------------------------------------------------

HealthOptions ManualHealthOptions() {
  HealthOptions options;
  options.tighten_admission = true;
  options.auto_evaluate_period_ms = 0;  // no cadence thread
  options.auto_tick_collector = false;  // the test owns time
  return options;
}

TEST(HealthMonitor, EscalatesImmediatelyRecoversWithHysteresis) {
  Collector collector(CollectorOptions{60});
  HealthMonitor monitor(ManualHealthOptions(), &collector);

  auto& recorder = support::FlightRecorder::Global();
  support::FlightRecorderOptions fr_options;
  fr_options.path = testing::TempDir() + "flight_health_cycle.json";
  recorder.Configure(fr_options);
  const std::int64_t dumps_before = recorder.dumps();

  HealthSignals calm;
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kHealthy);
  EXPECT_TRUE(monitor.AdmitsPriority(0));

  // Queue pressure crosses the degraded bound: escalate immediately.
  HealthSignals pressured;
  pressured.queue_saturation = 0.8;
  EXPECT_EQ(monitor.Evaluate(pressured), HealthState::kDegraded);
  EXPECT_EQ(monitor.transitions(), 1);
  EXPECT_FALSE(monitor.AdmitsPriority(0)) << "degraded sheds below priority 1";
  EXPECT_TRUE(monitor.AdmitsPriority(1));
  EXPECT_EQ(monitor.min_admit_priority(), 1);

  // Saturation: escalate again, and the flight recorder fires exactly once.
  HealthSignals saturated;
  saturated.queue_saturation = 1.0;
  saturated.shed_fraction = 0.5;
  EXPECT_EQ(monitor.Evaluate(saturated), HealthState::kUnhealthy);
  EXPECT_EQ(recorder.dumps(), dumps_before + 1);
  EXPECT_FALSE(monitor.AdmitsPriority(1));
  EXPECT_TRUE(monitor.AdmitsPriority(2));
  EXPECT_EQ(monitor.Evaluate(saturated), HealthState::kUnhealthy) << "no flap";
  EXPECT_EQ(recorder.dumps(), dumps_before + 1) << "one-shot while armed";

  // Recovery takes recovery_ticks calm evaluations per level (default 3).
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kUnhealthy);
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kUnhealthy);
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kDegraded) << "one level down";
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kDegraded);
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kDegraded);
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kHealthy);
  EXPECT_TRUE(monitor.AdmitsPriority(0));

  // A second incident does not dump again until the recorder is re-armed.
  EXPECT_EQ(monitor.Evaluate(saturated), HealthState::kUnhealthy);
  EXPECT_EQ(recorder.dumps(), dumps_before + 1);
  EXPECT_EQ(monitor.transitions(), 5);

  // The state gauge mirrors the machine.
  const auto* gauge = Registry::Global().FindGauge("serve/health/state");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.0);

  recorder.Disarm();
  std::remove(fr_options.path.c_str());
}

TEST(HealthMonitor, InterruptedRecoveryResetsHysteresis) {
  Collector collector(CollectorOptions{60});
  HealthMonitor monitor(ManualHealthOptions(), &collector);

  HealthSignals pressured;
  pressured.queue_saturation = 0.8;
  HealthSignals calm;

  EXPECT_EQ(monitor.Evaluate(pressured), HealthState::kDegraded);
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kDegraded);
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kDegraded);
  // Pressure returns before the third calm tick: the countdown restarts.
  EXPECT_EQ(monitor.Evaluate(pressured), HealthState::kDegraded);
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kDegraded);
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kDegraded);
  EXPECT_EQ(monitor.Evaluate(calm), HealthState::kHealthy);
}

TEST(HealthMonitor, DisabledMonitorNeverTightens) {
  HealthOptions options = ManualHealthOptions();
  options.enabled = false;
  Collector collector(CollectorOptions{60});
  HealthMonitor monitor(options, &collector);
  HealthSignals saturated;
  saturated.queue_saturation = 5.0;
  EXPECT_EQ(monitor.Evaluate(saturated), HealthState::kHealthy);
  EXPECT_TRUE(monitor.AdmitsPriority(-100));
}

// ---------------------------------------------------------------------------
// Debug HTTP endpoint
// ---------------------------------------------------------------------------

TEST(DebugHttp, ServesSupportEndpointsOverLoopback) {
  Registry::Global().GetCounter("httptest/hits").Increment(3);
  // The /timeseries document lists per-window stats for tracked series only.
  Collector::Global().TrackCounter("httptest/hits");

  support::DebugHttpServer http;
  support::RegisterSupportEndpoints(http);
  http.Start(0);  // ephemeral port
  ASSERT_TRUE(http.running());
  const int port = http.port();
  ASSERT_GT(port, 0);

  const support::HttpResult metrics = support::HttpGet(port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.error;
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.body.find("tnp_httptest_hits"), std::string::npos);

  const support::HttpResult series = support::HttpGet(port, "/timeseries?window=7");
  ASSERT_TRUE(series.ok()) << series.error;
  EXPECT_EQ(series.content_type, "application/json");
  EXPECT_NE(series.body.find("\"now_sec\""), std::string::npos);
  EXPECT_NE(series.body.find("\"7s\""), std::string::npos);

  const support::HttpResult record = support::HttpGet(port, "/flightrecord");
  ASSERT_TRUE(record.ok()) << record.error;
  EXPECT_NE(record.body.find("\"reason\":\"on-demand\""), std::string::npos);

  const support::HttpResult missing = support::HttpGet(port, "/nope");
  EXPECT_EQ(missing.status, 404);

  http.Stop();
  http.Stop();  // idempotent
  EXPECT_FALSE(http.running());
}

TEST(DebugHttp, PortInUseThrowsGracefully) {
  support::DebugHttpServer first;
  first.Start(0);
  support::DebugHttpServer second;
  EXPECT_THROW(second.Start(first.port()), Error);
  EXPECT_FALSE(second.running());
  first.Stop();
}

TEST(DebugHttp, HealthzReportsStateWith503WhileUnhealthy) {
  Collector collector(CollectorOptions{60});
  HealthMonitor monitor(ManualHealthOptions(), &collector);

  support::DebugHttpServer http;
  monitor.RegisterWith(http);
  http.Start(0);
  const int port = http.port();

  support::HttpResult result = support::HttpGet(port, "/healthz");
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"state\":\"healthy\""), std::string::npos);
  EXPECT_NE(result.body.find("\"serving\":true"), std::string::npos);

  HealthSignals saturated;
  saturated.queue_saturation = 1.5;
  monitor.Evaluate(saturated);
  result = support::HttpGet(port, "/healthz");
  EXPECT_EQ(result.status, 503) << "unhealthy answers 503 so balancers drain";
  EXPECT_NE(result.body.find("\"state\":\"unhealthy\""), std::string::npos);
  EXPECT_NE(result.body.find("\"serving\":false"), std::string::npos);

  // Degraded still serves: only Unhealthy is a probe failure.
  HealthSignals calm;
  monitor.Evaluate(calm);
  monitor.Evaluate(calm);
  monitor.Evaluate(calm);
  result = support::HttpGet(port, "/healthz");
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"state\":\"degraded\""), std::string::npos);

  http.Stop();
}

// ---------------------------------------------------------------------------
// End-to-end overload scenario on a real server
// ---------------------------------------------------------------------------

relay::Module TinyModel() {
  auto x = TypedVar("data", Shape({1, 3, 16, 16}), DType::kFloat32);
  auto conv = TypedCall("nn.conv2d",
                        {x, WeightF32(Shape({8, 3, 3, 3}), 1), ZeroBiasF32(8)},
                        relay::Attrs().SetInts("padding", {1, 1}));
  auto relu = TypedCall("nn.relu", {conv});
  auto pool = TypedCall("nn.global_avg_pool2d", {relu});
  auto flat = TypedCall("nn.batch_flatten", {pool});
  auto dense =
      TypedCall("nn.dense", {flat, WeightF32(Shape({5, 8}), 2), ZeroBiasF32(5)});
  auto softmax = TypedCall("nn.softmax", {dense});
  return relay::Module(relay::MakeFunction({x}, softmax));
}

serve::ServedModel MakeTinyServed(const std::string& name) {
  serve::ServedModel model;
  model.name = name;
  model.module = TinyModel();
  model.plan.primary = core::Assignment{core::FlowKind::kTvmOnly, 100.0};
  return model;
}

serve::ServeRequest MakeRequest(const std::string& model, int priority) {
  serve::ServeRequest request;
  request.model = model;
  request.inputs.emplace_back(
      "data", NDArray::Full(Shape({1, 3, 16, 16}), DType::kFloat32, 0.5));
  request.priority = priority;
  return request;
}

std::int64_t CounterValue(const std::string& name) {
  const auto* counter = Registry::Global().FindCounter(name);
  return counter != nullptr ? counter->value() : 0;
}

TEST(ServeHealth, OverloadCycleTightensAdmissionAndRecovers) {
  serve::ServerOptions options;
  options.queue_capacity = 8;
  options.health.tighten_admission = true;
  options.health.auto_evaluate_period_ms = 0;
  options.health.auto_tick_collector = false;
  serve::InferenceServer server({MakeTinyServed("tiny-health")}, options);
  HealthMonitor& monitor = server.health();

  auto& recorder = support::FlightRecorder::Global();
  support::FlightRecorderOptions fr_options;
  fr_options.path = testing::TempDir() + "flight_serve_health.json";
  recorder.Configure(fr_options);
  const std::int64_t dumps_before = recorder.dumps();

  support::DebugHttpServer http;
  monitor.RegisterWith(http);
  http.Start(0);
  const int port = http.port();

  // Healthy: everything admitted.
  EXPECT_EQ(server.Submit(MakeRequest("tiny-health", 0)).get().status,
            serve::ServeStatus::kOk);
  EXPECT_EQ(support::HttpGet(port, "/healthz").status, 200);

  // Degraded: priority 0 sheds at admission, priority 1 still runs.
  HealthSignals pressured;
  pressured.queue_saturation = 0.8;
  ASSERT_EQ(monitor.Evaluate(pressured), HealthState::kDegraded);
  const std::int64_t p0_sheds_before = CounterValue("serve/shed/p0");
  EXPECT_EQ(server.Submit(MakeRequest("tiny-health", 0)).get().status,
            serve::ServeStatus::kShed);
  EXPECT_EQ(CounterValue("serve/shed/p0"), p0_sheds_before + 1)
      << "per-priority shed attribution";
  EXPECT_EQ(server.Submit(MakeRequest("tiny-health", 1)).get().status,
            serve::ServeStatus::kOk);
  EXPECT_EQ(support::HttpGet(port, "/healthz").status, 200)
      << "degraded still serves";

  // Unhealthy: tighter gate, flight recorder fires exactly once, /healthz 503.
  HealthSignals saturated;
  saturated.queue_saturation = 1.2;
  saturated.shed_fraction = 0.5;
  ASSERT_EQ(monitor.Evaluate(saturated), HealthState::kUnhealthy);
  EXPECT_EQ(recorder.dumps(), dumps_before + 1);
  EXPECT_EQ(server.Submit(MakeRequest("tiny-health", 1)).get().status,
            serve::ServeStatus::kShed);
  EXPECT_EQ(server.Submit(MakeRequest("tiny-health", 2)).get().status,
            serve::ServeStatus::kOk);
  EXPECT_EQ(support::HttpGet(port, "/healthz").status, 503);
  EXPECT_EQ(recorder.dumps(), dumps_before + 1) << "fired exactly once";

  // Recovery: hysteresis steps back down, admission reopens, probe passes.
  HealthSignals calm;
  for (int i = 0; i < 6; ++i) monitor.Evaluate(calm);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(server.Submit(MakeRequest("tiny-health", 0)).get().status,
            serve::ServeStatus::kOk);
  EXPECT_EQ(support::HttpGet(port, "/healthz").status, 200);

  http.Stop();
  recorder.Disarm();
  std::remove(fr_options.path.c_str());
  server.Shutdown();
}

TEST(ServeHealth, SignalSourceReportsQueueAndPoolSaturation) {
  serve::ServerOptions options;
  options.health.auto_evaluate_period_ms = 0;
  options.health.auto_tick_collector = false;
  serve::InferenceServer server({MakeTinyServed("tiny-signals")}, options);

  // The idle server's own signal source reports empty queues and pool.
  server.health().Evaluate();
  const HealthSignals signals = server.health().last_signals();
  EXPECT_GE(signals.queue_saturation, 0.0);
  EXPECT_LT(signals.queue_saturation, 1.0);
  EXPECT_GE(signals.pool_saturation, 0.0);
  EXPECT_EQ(server.health().state(), HealthState::kHealthy);
  server.Shutdown();
}

}  // namespace
}  // namespace tnp
