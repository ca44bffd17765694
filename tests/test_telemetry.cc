// Telemetry export surface: JSON parser, Prometheus/JSON metric exporters,
// the periodic TelemetrySampler, the flight recorder, and structured
// logging's trace-context correlation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/error.h"
#include "support/flight_recorder.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/telemetry.h"
#include "support/trace.h"
#include "support/trace_context.h"

namespace tnp {
namespace {

using support::JsonValue;
using support::metrics::Registry;

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  const JsonValue root = JsonValue::Parse(
      R"({"a": 1.5, "b": "text", "c": [1, 2, 3], "d": {"nested": true},
          "e": null, "f": -2e3})");
  ASSERT_TRUE(root.is_object());
  EXPECT_DOUBLE_EQ(root.Find("a")->number(), 1.5);
  EXPECT_EQ(root.Find("b")->string(), "text");
  ASSERT_TRUE(root.Find("c")->is_array());
  EXPECT_EQ(root.Find("c")->array().size(), 3u);
  EXPECT_DOUBLE_EQ(root.Find("c")->array()[2].number(), 3.0);
  EXPECT_TRUE(root.Find("d")->Find("nested")->bool_value());
  EXPECT_TRUE(root.Find("e")->is_null());
  EXPECT_DOUBLE_EQ(root.Find("f")->number(), -2000.0);
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(Json, StringEscapes) {
  const JsonValue root = JsonValue::Parse(R"({"s": "a\"b\\c\nd\te"})");
  EXPECT_EQ(root.Find("s")->string(), "a\"b\\c\nd\te");
}

TEST(Json, HelpersAndDefaults) {
  const JsonValue root = JsonValue::Parse(R"({"n": 4, "s": "x"})");
  EXPECT_DOUBLE_EQ(root.NumberOr("n", -1.0), 4.0);
  EXPECT_DOUBLE_EQ(root.NumberOr("absent", -1.0), -1.0);
  EXPECT_EQ(root.StringOr("s", "d"), "x");
  EXPECT_EQ(root.StringOr("n", "d"), "d");  // wrong type -> default
}

TEST(Json, RejectsMalformedInput) {
  JsonValue out;
  std::string error;
  EXPECT_FALSE(JsonValue::TryParse("{\"a\": }", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(JsonValue::TryParse("[1, 2", &out));
  EXPECT_FALSE(JsonValue::TryParse("{\"a\": 1} trailing", &out));
  EXPECT_THROW(JsonValue::Parse("nope"), Error);
}

TEST(Json, RoundTripsChromeTraceExport) {
  auto& tracer = support::Tracer::Global();
  support::Tracer::ScopedEnable enable;
  tracer.Clear();
  { TNP_TRACE_SCOPE("test", "json-roundtrip", support::TraceArg("k", "v")); }
  const JsonValue root = JsonValue::Parse(tracer.ExportChromeTrace());
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array().empty());
  const JsonValue& span = events->array().back();
  EXPECT_EQ(span.StringOr("name", ""), "json-roundtrip");
  EXPECT_EQ(span.Find("args")->StringOr("k", ""), "v");
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Exporters, PrometheusTextFormat) {
  Registry registry;
  registry.GetCounter("serve/shed").Increment(3);
  auto& gauge = registry.GetGauge("serve/queue/cpu/depth");
  gauge.Set(7.0);
  gauge.Set(2.0);
  auto& histogram = registry.GetHistogram("serve/request/us");
  for (int i = 1; i <= 100; ++i) histogram.Record(static_cast<double>(i));

  const std::string text = support::metrics::ExportPrometheus(registry);
  EXPECT_NE(text.find("tnp_serve_shed 3"), std::string::npos);
  EXPECT_NE(text.find("tnp_serve_queue_cpu_depth 2"), std::string::npos);
  // Gauges export their high-watermark as a companion series.
  EXPECT_NE(text.find("tnp_serve_queue_cpu_depth_max 7"), std::string::npos);
  // Histograms export as summaries with quantile labels.
  EXPECT_NE(text.find("tnp_serve_request_us{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("tnp_serve_request_us{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("tnp_serve_request_us_count 100"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tnp_serve_shed counter"), std::string::npos);
}

TEST(Exporters, PrometheusOutputIsSortedWithHelpLines) {
  Registry registry;
  // Registered deliberately out of name order: export must sort.
  registry.GetCounter("zeta/events").Increment();
  registry.GetGauge("mid/depth").Set(1.0);
  registry.GetCounter("alpha/events").Increment();

  const std::string text = support::metrics::ExportPrometheus(registry);
  const std::size_t alpha_at = text.find("tnp_alpha_events");
  const std::size_t mid_at = text.find("tnp_mid_depth");
  const std::size_t zeta_at = text.find("tnp_zeta_events");
  ASSERT_NE(alpha_at, std::string::npos);
  ASSERT_NE(mid_at, std::string::npos);
  ASSERT_NE(zeta_at, std::string::npos);
  EXPECT_LT(alpha_at, mid_at);
  EXPECT_LT(mid_at, zeta_at);

  // Every series carries # HELP (original slash name) and # TYPE.
  EXPECT_NE(text.find("# HELP tnp_alpha_events alpha/events"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tnp_alpha_events counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP tnp_mid_depth mid/depth"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tnp_mid_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# HELP tnp_mid_depth_max high-watermark of mid/depth"),
            std::string::npos);

  // Determinism: the same registry exports byte-identical text.
  EXPECT_EQ(text, support::metrics::ExportPrometheus(registry));
}

TEST(Exporters, JsonSnapshotRoundTrips) {
  Registry registry;
  registry.GetCounter("serve/completed").Increment(5);
  registry.GetGauge("pool/in_flight").Set(2.0);
  auto& histogram = registry.GetHistogram("serve/run/us");
  for (int i = 1; i <= 10; ++i) histogram.Record(static_cast<double>(i) * 100.0);

  const JsonValue root = JsonValue::Parse(support::metrics::ExportJson(registry));
  EXPECT_DOUBLE_EQ(root.Find("counters")->NumberOr("serve/completed", 0.0), 5.0);
  const JsonValue* gauge = root.Find("gauges")->Find("pool/in_flight");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->NumberOr("value", 0.0), 2.0);
  const JsonValue* summary = root.Find("histograms")->Find("serve/run/us");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->NumberOr("count", 0.0), 10.0);
  EXPECT_GT(summary->NumberOr("p95", 0.0), summary->NumberOr("p50", 0.0));
}

// ---------------------------------------------------------------------------
// TelemetrySampler
// ---------------------------------------------------------------------------

TEST(TelemetrySampler, PublishesGaugesAsCounterTracks) {
  auto& registry = Registry::Global();
  auto& histogram = registry.GetHistogram("sampler_test/flow/us");
  for (int i = 1; i <= 100; ++i) histogram.Record(static_cast<double>(i));
  registry.GetGauge("sampler_test/depth").Set(5.0);

  auto& tracer = support::Tracer::Global();
  support::Tracer::ScopedEnable enable;
  tracer.Clear();

  support::TelemetrySampler sampler;
  sampler.SampleOnce();
  EXPECT_EQ(sampler.samples(), 1u);

  // Gauges re-published as Chrome-trace counter tracks.
  bool saw_counter = false;
  for (const auto& event : tracer.Snapshot()) {
    if (event.phase == support::TracePhase::kCounter &&
        event.name == "sampler_test/depth") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(event.counter_value, 5.0);
    }
  }
  EXPECT_TRUE(saw_counter);

  // Percentiles live in the histogram itself; the sampler publishes nothing
  // into the registry.
  EXPECT_EQ(registry.FindGauge("telemetry/sampler_test/flow/us/p95"), nullptr);
}

TEST(TelemetrySampler, BackgroundThreadSamplesOnCadence) {
  support::TelemetrySamplerOptions options;
  options.period = std::chrono::milliseconds(5);
  support::TelemetrySampler sampler(options);
  sampler.Start();
  sampler.Start();  // idempotent
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sampler.samples() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.Stop();
  sampler.Stop();  // idempotent
  EXPECT_GE(sampler.samples(), 3u);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, ManualDumpContainsTraceTailAndMetrics) {
  auto& tracer = support::Tracer::Global();
  support::Tracer::ScopedEnable enable;
  tracer.Clear();
  { TNP_TRACE_SCOPE("test", "pre-incident"); }
  Registry::Global().GetCounter("flight_test/events").Increment();

  auto& recorder = support::FlightRecorder::Global();
  support::FlightRecorderOptions options;
  options.path = testing::TempDir() + "flight_manual.json";
  options.max_events = 8;
  recorder.Configure(options);
  EXPECT_TRUE(recorder.armed());

  const std::string path = recorder.Dump("unit-test");
  recorder.Disarm();
  EXPECT_FALSE(recorder.armed());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = JsonValue::Parse(buffer.str());
  EXPECT_EQ(root.StringOr("reason", ""), "unit-test");
  const JsonValue* events = root.Find("trace")->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_LE(events->array().size(), 8u);
  bool saw_span = false;
  for (const auto& event : events->array()) {
    if (event.StringOr("name", "") == "pre-incident") saw_span = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_GE(root.Find("metrics")->Find("counters")->NumberOr("flight_test/events", 0.0),
            1.0);
  std::remove(path.c_str());
}

TEST(FlightRecorder, ShedStormTriggersOneAutomaticDump) {
  auto& recorder = support::FlightRecorder::Global();
  const std::int64_t dumps_before = recorder.dumps();

  support::FlightRecorderOptions options;
  options.path = testing::TempDir() + "flight_storm.json";
  options.shed_storm_threshold = 5;
  options.shed_storm_window_ms = 10000.0;
  recorder.Configure(options);

  for (int i = 0; i < 20; ++i) recorder.RecordShed();
  EXPECT_EQ(recorder.dumps(), dumps_before + 1);  // one-shot, not per-shed

  std::ifstream in(options.path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(JsonValue::Parse(buffer.str()).StringOr("reason", ""), "shed-storm");
  recorder.Disarm();
  for (int i = 0; i < 20; ++i) recorder.RecordShed();  // disarmed: no-op
  EXPECT_EQ(recorder.dumps(), dumps_before + 1);
  std::remove(options.path.c_str());
}

TEST(FlightRecorder, HealthTransitionTriggersOneDumpUntilRearmed) {
  auto& recorder = support::FlightRecorder::Global();
  const std::int64_t dumps_before = recorder.dumps();

  support::FlightRecorderOptions options;
  options.path = testing::TempDir() + "flight_health.json";
  recorder.Configure(options);

  recorder.RecordHealthTransition("healthy->unhealthy burn=9.0");
  EXPECT_EQ(recorder.dumps(), dumps_before + 1);
  recorder.RecordHealthTransition("healthy->unhealthy again");
  EXPECT_EQ(recorder.dumps(), dumps_before + 1) << "one-shot while armed";

  std::ifstream in(options.path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(JsonValue::Parse(buffer.str()).StringOr("reason", ""),
            "health:healthy->unhealthy burn=9.0");

  // Re-arming resets the one-shot; disarming silences it entirely.
  recorder.Configure(options);
  recorder.RecordHealthTransition("second incident");
  EXPECT_EQ(recorder.dumps(), dumps_before + 2);
  recorder.Disarm();
  recorder.RecordHealthTransition("while disarmed");
  EXPECT_EQ(recorder.dumps(), dumps_before + 2);
  std::remove(options.path.c_str());
}

TEST(FlightRecorder, DumpKeepsOnlyTheNewestEvents) {
  auto& tracer = support::Tracer::Global();
  support::Tracer::ScopedEnable enable;
  tracer.Clear();
  for (int i = 0; i < 20; ++i) {
    TNP_TRACE_SCOPE("test", "span-" + std::to_string(i));
  }

  auto& recorder = support::FlightRecorder::Global();
  support::FlightRecorderOptions options;
  options.path = testing::TempDir() + "flight_truncate.json";
  options.max_events = 5;
  recorder.Configure(options);
  const JsonValue root = JsonValue::Parse(recorder.Render("truncate-test"));
  recorder.Disarm();

  const JsonValue* events = root.Find("trace")->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_LE(events->array().size(), 5u);
  bool saw_newest = false;
  bool saw_oldest = false;
  for (const auto& event : events->array()) {
    const std::string name = event.StringOr("name", "");
    if (name == "span-19") saw_newest = true;
    if (name == "span-0") saw_oldest = true;
  }
  EXPECT_TRUE(saw_newest) << "the tail of the ring is the incident context";
  EXPECT_FALSE(saw_oldest) << "older events beyond max_events are dropped";
}

// ---------------------------------------------------------------------------
// Structured logging + trace-context correlation
// ---------------------------------------------------------------------------

TEST(Logging, StructuredFieldsAndRequestCorrelation) {
  std::ostringstream captured;
  support::SetLogSink(&captured);
  const support::LogLevel previous = support::ActiveLogLevel();
  support::SetLogLevel(support::LogLevel::kDebug);

  TNP_LOG(INFO) << "plain line" << support::KV("model", "det")
                << support::KV("count", 3);
  {
    support::TraceContext ctx = support::TraceContext::NewRequest();
    support::TraceContextScope scope(ctx);
    TNP_LOG(DEBUG) << "correlated" << support::KV("flow", "BYOC(APU)");
    const std::string text = captured.str();
    EXPECT_NE(text.find("model=\"det\""), std::string::npos);
    EXPECT_NE(text.find("count=3"), std::string::npos);
    EXPECT_NE(text.find("req_id=" + std::to_string(ctx.req_id)), std::string::npos);
  }
  const std::string before = captured.str();
  EXPECT_EQ(before.find("plain line req_id"), std::string::npos)
      << "no req_id outside a context scope";

  // Level filtering: DEBUG suppressed at INFO.
  support::SetLogLevel(support::LogLevel::kInfo);
  TNP_LOG(DEBUG) << "suppressed";
  EXPECT_EQ(captured.str().find("suppressed"), std::string::npos);

  support::SetLogLevel(previous);
  support::SetLogSink(nullptr);
}

// ---------------------------------------------------------------------------
// TraceContext primitives
// ---------------------------------------------------------------------------

TEST(TraceContext, ScopesNestAndRestore) {
  EXPECT_FALSE(support::CurrentTraceContext().active());
  support::TraceContext outer = support::TraceContext::NewRequest();
  support::TraceContext inner = support::TraceContext::NewRequest();
  EXPECT_NE(outer.req_id, inner.req_id);
  {
    support::TraceContextScope outer_scope(outer);
    EXPECT_EQ(support::CurrentTraceContext().req_id, outer.req_id);
    {
      support::TraceContextScope inner_scope(inner);
      EXPECT_EQ(support::CurrentTraceContext().req_id, inner.req_id);
    }
    EXPECT_EQ(support::CurrentTraceContext().req_id, outer.req_id);
  }
  EXPECT_FALSE(support::CurrentTraceContext().active());
}

TEST(TraceContext, SpansRecordRequestAndParentChain) {
  auto& tracer = support::Tracer::Global();
  support::Tracer::ScopedEnable enable;
  tracer.Clear();

  support::TraceContext ctx = support::TraceContext::NewRequest();
  {
    support::TraceContextScope scope(ctx);
    TNP_TRACE_SCOPE("test", "outer");
    { TNP_TRACE_SCOPE("test", "inner"); }
    TNP_TRACE_INSTANT("test", "point");
  }
  { TNP_TRACE_SCOPE("test", "unrelated"); }

  std::uint64_t outer_span = 0;
  std::uint64_t inner_parent = 0;
  std::uint64_t instant_parent = 0;
  for (const auto& event : tracer.Snapshot()) {
    if (event.name == "outer") {
      EXPECT_EQ(event.ArgValue("req_id"), std::to_string(ctx.req_id));
      EXPECT_EQ(event.ArgValue("parent"), std::to_string(ctx.span_id));
      outer_span = std::stoull(event.ArgValue("span"));
    } else if (event.name == "inner") {
      EXPECT_EQ(event.ArgValue("req_id"), std::to_string(ctx.req_id));
      inner_parent = std::stoull(event.ArgValue("parent"));
    } else if (event.name == "point") {
      EXPECT_EQ(event.ArgValue("req_id"), std::to_string(ctx.req_id));
      instant_parent = std::stoull(event.ArgValue("parent"));
    } else if (event.name == "unrelated") {
      EXPECT_TRUE(event.ArgValue("req_id").empty());
    }
  }
  ASSERT_NE(outer_span, 0u);
  EXPECT_EQ(inner_parent, outer_span);   // nesting chains the parent
  EXPECT_EQ(instant_parent, outer_span); // instant while outer is still open
}

}  // namespace
}  // namespace tnp
