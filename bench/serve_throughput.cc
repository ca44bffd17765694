// Serving-runtime load bench (and acceptance test, wired into CTest):
//
//   1. closed-loop scaling — aggregate throughput must increase from 1 to N
//      concurrent camera-style streams (each with an inter-frame think
//      time): a single stream leaves the device idle between frames, and
//      the server must fill that idle time by multiplexing more streams;
//   2. request-latency percentiles (p50/p95/p99) read back from the metrics
//      registry's "serve/request/us" histogram;
//   3. open-loop overload — with unpaced submission (beyond any capacity) the server
//      must shed or CPU-fall-back requests (nonzero serve/shed or
//      serve/fallback) while every queue stays within its configured bound,
//      and the per-priority shed counters (serve/shed/p<N>) must account
//      for every shed request;
//   4. steady-state memory — a warm serving loop with caller-provided
//      buffers performs zero tensor heap allocations.
//
// The closed-loop phase also runs a TelemetrySampler so the windowed
// time-series collector fills, and reports the steady-window (last 10s)
// p50/p95/p99 alongside the whole-run registry percentiles.
//
// Any violated property prints FAIL and the process exits nonzero.
// `--quick` shrinks request counts (the CTest configuration).
#include <cstring>
#include <iostream>

#include "bench/bench_util.h"
#include "frontend/common.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "support/telemetry.h"
#include "support/timeseries.h"

using namespace tnp;
using support::metrics::Registry;

namespace {

/// Conv net sized by `width`; every flow supports it.
relay::Module ConvNet(int channels) {
  using frontend::TypedCall;
  using frontend::TypedVar;
  using frontend::WeightF32;
  using frontend::ZeroBiasF32;
  auto x = TypedVar("data", Shape({1, 3, 32, 32}), DType::kFloat32);
  auto conv1 = TypedCall(
      "nn.conv2d", {x, WeightF32(Shape({channels, 3, 3, 3}), 1), ZeroBiasF32(channels)},
      relay::Attrs().SetInts("padding", {1, 1}));
  auto relu1 = TypedCall("nn.relu", {conv1});
  auto conv2 = TypedCall(
      "nn.conv2d",
      {relu1, WeightF32(Shape({channels, channels, 3, 3}), 2), ZeroBiasF32(channels)},
      relay::Attrs().SetInts("padding", {1, 1}));
  auto relu2 = TypedCall("nn.relu", {conv2});
  auto pool = TypedCall("nn.global_avg_pool2d", {relu2});
  auto flat = TypedCall("nn.batch_flatten", {pool});
  auto dense =
      TypedCall("nn.dense", {flat, WeightF32(Shape({8, channels}), 3), ZeroBiasF32(8)});
  return relay::Module(relay::MakeFunction({x}, TypedCall("nn.softmax", {dense})));
}

serve::ServedModel Served(const std::string& name, int channels, core::FlowKind primary,
                          std::optional<core::FlowKind> fallback = std::nullopt) {
  serve::ServedModel model;
  model.name = name;
  model.module = ConvNet(channels);
  model.plan.primary = core::Assignment{primary, 0.0};
  if (fallback.has_value()) model.plan.cpu_fallback = core::Assignment{*fallback, 0.0};
  return model;
}

NDArray Input() { return NDArray::Full(Shape({1, 3, 32, 32}), DType::kFloat32, 0.25); }

std::vector<serve::ClientStream> MakeStreams(int count, bool with_buffers,
                                             double think_time_us = 0.0) {
  // Round-robin over the served models: even streams hit the CPU-resident
  // detector stand-in, odd streams the APU-resident one. Closed-loop
  // streams model cameras with an inter-frame gap (`think_time_us`): one
  // such stream leaves the device idle most of the time, so aggregate
  // throughput grows with the number of multiplexed streams until the
  // device saturates — the property phase 1 asserts.
  std::vector<serve::ClientStream> streams;
  for (int c = 0; c < count; ++c) {
    serve::ClientStream stream;
    stream.model = c % 2 == 0 ? "det-cpu" : "emo-apu";
    stream.inputs = {{"data", Input()}};
    stream.priority = c % 2 == 0 ? 1 : 0;  // detector-style streams preempt
    stream.think_time_us = think_time_us;
    if (with_buffers) {
      stream.output_buffers = {NDArray::Zeros(Shape({1, 8}), DType::kFloat32)};
    }
    streams.push_back(std::move(stream));
  }
  return streams;
}

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
  if (!ok) ++failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int per_client = quick ? 24 : 100;

  std::cout << "=== serve_throughput: concurrent multi-client serving ===\n\n";

  std::vector<serve::ServedModel> models;
  models.push_back(Served("det-cpu", 8, core::FlowKind::kByocCpu));
  models.push_back(Served("emo-apu", 8, core::FlowKind::kNpApu, core::FlowKind::kNpCpu));

  // ---- 1) closed-loop scaling -------------------------------------------
  double thr_one = 0.0;
  double thr_max = 0.0;
  {
    serve::ServerOptions options;
    options.queue_capacity = 32;
    options.max_batch = 4;
    serve::InferenceServer server(models, options);

    // Camera-style streams: ~3ms between frames per stream. One stream
    // leaves the server mostly idle; throughput must grow as more streams
    // multiplex onto it.
    const double think_us = 3000.0;
    auto& steady_window =
        support::timeseries::Collector::Global().TrackHistogram("serve/request/us");
    support::TelemetrySampler sampler;
    sampler.Start();
    support::Table table({"client streams", "ok", "shed", "throughput rps",
                          "p50 ms", "p95 ms", "p99 ms"});
    for (const int clients : {1, 2, 4, 8}) {
      auto& request_us = Registry::Global().GetHistogram("serve/request/us");
      request_us.Reset();
      const serve::LoadResult result =
          serve::RunClosedLoop(server, MakeStreams(clients, false, think_us), per_client);
      const auto summary = request_us.Summarize();
      table.AddRow({std::to_string(clients), std::to_string(result.ok),
                    std::to_string(result.shed),
                    support::FormatDouble(result.throughput_rps, 1),
                    bench::Ms(summary.p50), bench::Ms(summary.p95), bench::Ms(summary.p99)});
      if (clients == 1) thr_one = result.throughput_rps;
      thr_max = std::max(thr_max, result.throughput_rps);
    }
    table.Print(std::cout, "  closed-loop scaling (" + std::to_string(per_client) +
                               " requests/client):");
    std::cout << "\n";
    sampler.Stop();
    support::timeseries::Collector::Global().Tick();  // pull the final samples
    const auto steady = steady_window.Summarize(10);
    std::cout << "  steady-window (last 10s, via time-series collector): "
              << steady.count << " samples, p50 " << bench::Ms(steady.p50) << " ms, p95 "
              << bench::Ms(steady.p95) << " ms, p99 " << bench::Ms(steady.p99) << " ms\n";
    Check(steady.count > 0 && steady.p50 <= steady.p99,
          "windowed time-series percentiles populated and ordered");
    Check(thr_max > thr_one * 1.15,
          "aggregate throughput scales with concurrent streams (1 -> N: " +
              support::FormatDouble(thr_one, 1) + " -> " + support::FormatDouble(thr_max, 1) +
              " rps)");
    const auto batch_summary = Registry::Global().GetHistogram("serve/batch/size").Summarize();
    std::cout << "  micro-batch size: mean " << support::FormatDouble(batch_summary.mean, 2)
              << ", max " << support::FormatDouble(batch_summary.max, 0) << "\n\n";
  }

  // ---- 2) open-loop overload --------------------------------------------
  {
    const std::size_t capacity = 4;
    Registry::Global().GetGauge("serve/queue/cpu/depth").Reset();
    Registry::Global().GetGauge("serve/queue/apu/depth").Reset();
    const std::int64_t shed_before =
        Registry::Global().GetCounter("serve/shed").value();
    const std::int64_t fallback_before =
        Registry::Global().GetCounter("serve/fallback").value();

    serve::ServerOptions options;
    options.queue_capacity = capacity;
    serve::InferenceServer server(models, options);

    // Saturating schedule: every request is submitted back-to-back, with no
    // pacing. A paced rate derived from phase 1 does not saturate: those
    // streams are limited by their think time, not by the server, so 3x
    // their throughput can still sit below what the server drains.
    const int total = quick ? 300 : 1200;
    const serve::LoadResult result =
        serve::RunOpenLoop(server, MakeStreams(4, false), total, /*rate_rps=*/0.0);

    support::Table table({"submitted", "ok", "shed", "fell back", "expired"});
    table.AddRow({std::to_string(result.submitted), std::to_string(result.ok),
                  std::to_string(result.shed), std::to_string(result.fell_back),
                  std::to_string(result.expired)});
    table.Print(std::cout, "  open-loop overload (unpaced burst of " +
                               std::to_string(total) + "):");
    std::cout << "\n";

    const std::int64_t shed_delta =
        Registry::Global().GetCounter("serve/shed").value() - shed_before;
    const std::int64_t fallback_delta =
        Registry::Global().GetCounter("serve/fallback").value() - fallback_before;
    Check(shed_delta + fallback_delta > 0,
          "overload sheds or falls back (serve/shed " + std::to_string(shed_delta) +
              ", serve/fallback " + std::to_string(fallback_delta) + ")");
    const double cpu_peak = Registry::Global().GetGauge("serve/queue/cpu/depth").max();
    const double apu_peak = Registry::Global().GetGauge("serve/queue/apu/depth").max();
    Check(cpu_peak <= static_cast<double>(capacity) &&
              apu_peak <= static_cast<double>(capacity),
          "queue depth stays within its bound (cpu peak " +
              support::FormatDouble(cpu_peak, 0) + ", apu peak " +
              support::FormatDouble(apu_peak, 0) + ", bound " + std::to_string(capacity) +
              ")");
    Check(result.ok > 0, "served useful work under overload");
  }

  // ---- 3) steady-state zero-allocation serving --------------------------
  {
    serve::InferenceServer server(models, {});
    const auto streams = MakeStreams(2, /*with_buffers=*/true);
    serve::RunClosedLoop(server, streams, 4);  // warm every session
    const std::int64_t allocs_before = NDArray::TotalAllocations();
    const serve::LoadResult result = serve::RunClosedLoop(server, streams, quick ? 8 : 32);
    const std::int64_t alloc_delta = NDArray::TotalAllocations() - allocs_before;
    std::cout << "\n  steady-state: " << result.ok << " requests, tensor allocations delta "
              << alloc_delta << "\n";
    Check(alloc_delta == 0, "warm serving performs zero tensor heap allocations");
  }

  std::cout << "\n"
            << (failures == 0 ? "all serving properties hold"
                              : std::to_string(failures) + " propertie(s) violated")
            << "\n";
  return failures == 0 ? 0 : 1;
}
