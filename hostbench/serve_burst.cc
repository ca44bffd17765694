// serve_burst: one generator thread drives a serve::InferenceServer in a
// closed loop of bursts. It submits kBurst requests at once (seeded choice
// of model and input), waits for every response, checks each one, and only
// then submits the next burst. The server serves the showcase's two face
// models, one CPU-resident and one APU-resident, at two priorities. A burst
// fits the queues, so nothing sheds in the timed loop; the traced run adds
// overload bursts four times the queue bound, which drive shedding and CPU
// fallback.
#include <memory>
#include <random>

#include "serve/server.h"
#include "support/metrics.h"
#include "vision/models.h"
#include "workloads.h"

namespace hostbench {
namespace {

using tnp::NDArray;
using tnp::core::FlowKind;
using tnp::serve::ServeResponse;
using tnp::serve::ServeStatus;

/// Requests per burst: one burst keeps the pool's worker busy for about
/// 90 ms, so a stall of a few milliseconds moves a burst's time little.
constexpr int kBurst = 2048;
/// Per-resource queue bound: a whole burst fits one queue.
constexpr std::size_t kQueueCapacity = kBurst;
/// Overload bursts (traced run only) overflow the queues.
constexpr int kOverloadBurst = 4 * kBurst;
constexpr double kOverloadSeconds = 1.0;

constexpr int kInputs = 16;          ///< distinct seeded inputs per stream
constexpr int kWarmupRequests = 4;  ///< per model, one at a time, in set-up
/// Both face models take the (1, 1, 48, 48) crop as "face".
constexpr const char* kInputName = "face";

struct Stream {
  const char* model;
  FlowKind primary;
  std::optional<FlowKind> fallback;
  int priority;
};

// Anti-spoofing stays on the CPU; emotion runs on the APU and may fall back
// to the CPU when the APU queue is full. Anti-spoofing gates the cascade,
// so it has the higher priority.
const Stream kStreams[] = {
    {"antispoof", FlowKind::kByocCpu, std::nullopt, 1},
    {"emotion", FlowKind::kNpApu, FlowKind::kNpCpu, 0},
};

tnp::relay::Module StreamModule(int stream) {
  return stream == 0 ? tnp::vision::AntiSpoofFunctionalModule()
                     : tnp::vision::EmotionFunctionalModule();
}

struct Inputs {
  std::vector<NDArray> inputs[2];
  std::vector<NDArray> references[2];  ///< direct session Run() outputs
};

struct Window {
  Samples burst_ms;  ///< first Submit -> last response collected
  Samples rate;      ///< per burst: requests per second
  // Per request (untraced bursts of a traced run).
  Samples submit_us, queue_ms, run_ms, overhead_ms;
  /// Per burst: the last response produced -> the burst collected.
  Samples deliver_ms;
  std::int64_t requests = 0, ok = 0, served = 0, shed = 0, fell_back = 0, expired = 0;
  double batch_sum = 0.0;
};

/// Run bursts of `burst` requests until `seconds` have passed. In the
/// timed loop (`overload` false) every request must be served correctly;
/// in overload bursts shedding and fallback are the behaviour under test,
/// so only an error or a wrong output fails. A traced run drains the tracer
/// into `fold` after every burst. Untraced timed bursts keep per-request
/// samples for the serve.* layer figures only with `per_request`: they take
/// 32 bytes a request, which would otherwise grow peak_rss_mb with the
/// number of requests a run served.
Window RunBursts(tnp::serve::InferenceServer& server, const Inputs& data, int burst,
                 double seconds, std::mt19937_64& rng, bool overload, bool per_request,
                 Report& report, TraceFold* fold) {
  std::uniform_int_distribution<int> pick(0, 1);
  std::uniform_int_distribution<int> pick_input(0, kInputs - 1);
  const std::string unit = "unit:burst";
  std::vector<int> stream(burst), input(burst);
  std::vector<tnp::serve::ServeRequest> requests(burst);
  std::vector<std::future<ServeResponse>> futures(burst);
  std::vector<ServeResponse> responses(burst);
  std::vector<double> submitted_ms(burst), submit_us(burst);

  Window window;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < deadline) {
    for (int i = 0; i < burst; ++i) {
      stream[i] = pick(rng);
      input[i] = pick_input(rng);
      requests[i].model = kStreams[stream[i]].model;
      requests[i].inputs = {{kInputName, data.inputs[stream[i]][input[i]]}};
      requests[i].priority = kStreams[stream[i]].priority;
    }
    const auto start = Clock::now();
    {
      BenchSpan span(unit);
      for (int i = 0; i < burst; ++i) {
        const auto submit = Clock::now();
        futures[i] = server.Submit(std::move(requests[i]));
        submit_us[i] = std::chrono::duration<double, std::micro>(Clock::now() - submit).count();
        submitted_ms[i] = std::chrono::duration<double, std::milli>(submit - start).count();
      }
      for (int i = 0; i < burst; ++i) responses[i] = futures[i].get();
    }
    const double ms = MsSince(start);
    if (fold != nullptr) fold->Drain();
    window.burst_ms.Add(ms);
    window.rate.Add(burst * 1000.0 / ms);

    double last_response_ms = 0.0;
    for (int i = 0; i < burst; ++i) {
      const ServeResponse& r = responses[i];
      const bool correct = r.status == ServeStatus::kOk && r.outputs.size() == 1 &&
                           NDArray::BitEqual(r.outputs[0], data.references[stream[i]][input[i]]);
      ++window.requests;
      window.ok += correct ? 1 : 0;
      window.shed += r.status == ServeStatus::kShed ? 1 : 0;
      window.expired += r.status == ServeStatus::kExpired ? 1 : 0;
      window.fell_back += r.fell_back ? 1 : 0;
      if (r.status == ServeStatus::kOk) {
        ++window.served;
        window.batch_sum += r.batch_size;
      }
      if (!overload) {
        report.Check(correct);
      } else if (r.status != ServeStatus::kShed && r.status != ServeStatus::kExpired) {
        report.Check(correct);
      }
      if (fold != nullptr || overload || !per_request) continue;
      window.submit_us.Add(submit_us[i]);
      window.queue_ms.Add(r.queue_us / 1000.0);
      window.run_ms.Add(r.run_us / 1000.0);
      window.overhead_ms.Add((r.total_us - r.queue_us - r.run_us) / 1000.0);
      last_response_ms = std::max(last_response_ms, submitted_ms[i] + r.total_us / 1000.0);
    }
    if (fold == nullptr && !overload && per_request) window.deliver_ms.Add(ms - last_response_ms);
    for (ServeResponse& r : responses) r.outputs.clear();
  }
  return window;
}

}  // namespace

Report RunServeBurst(const Options& options) {
  Report report;
  Inputs data;
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < kInputs; ++i) {
      data.inputs[s].push_back(NDArray::RandomNormal(
          tnp::Shape({1, 1, tnp::vision::kFaceCropSize, tnp::vision::kFaceCropSize}),
          options.seed * 7919 + s * 101 + i, 0.5f));
    }
  }

  std::unique_ptr<tnp::serve::InferenceServer> server;
  std::int64_t pass_runs = 0, plans = 0;
  const double setup_s = MedianSetupSeconds([&] {
    server.reset();
    const auto start = Clock::now();
    const std::int64_t passes0 = CounterValue("relay/pass_runs");
    const std::int64_t plans0 = CounterValue("neuron/plans");
    std::vector<tnp::serve::ServedModel> models;
    for (int s = 0; s < 2; ++s) {
      tnp::serve::ServedModel model;
      model.name = kStreams[s].model;
      model.module = StreamModule(s);
      model.plan.primary = tnp::core::Assignment{kStreams[s].primary, 0.0};
      if (kStreams[s].fallback) {
        model.plan.cpu_fallback = tnp::core::Assignment{*kStreams[s].fallback, 0.0};
      }
      models.push_back(std::move(model));
    }
    tnp::serve::ServerOptions server_options;
    server_options.queue_capacity = kQueueCapacity;
    server = std::make_unique<tnp::serve::InferenceServer>(std::move(models), server_options);
    // Warm sessions, arenas and pumps with one small burst: answers are
    // awaited once, not per request, so set-up time is not a sum of thread
    // wake-ups.
    std::vector<std::future<ServeResponse>> warmup;
    for (int i = 0; i < kWarmupRequests; ++i) {
      for (int s = 0; s < 2; ++s) {
        tnp::serve::ServeRequest request;
        request.model = kStreams[s].model;
        request.inputs = {{kInputName, data.inputs[s][i % kInputs]}};
        warmup.push_back(server->Submit(std::move(request)));
      }
    }
    for (auto& response : warmup) response.get();
    const double seconds = MsSince(start) / 1000.0;
    pass_runs = CounterValue("relay/pass_runs") - passes0;
    plans = CounterValue("neuron/plans") - plans0;
    return seconds;
  });

  // Oracle: a direct session Run() on the same inputs.
  for (int s = 0; s < 2; ++s) {
    const tnp::relay::Module module = StreamModule(s);
    const auto session = tnp::core::CompileFlow(module, kStreams[s].primary);
    for (const NDArray& input : data.inputs[s]) {
      session->SetInput(kInputName, input);
      session->Run();
      data.references[s].push_back(session->GetOutput(0).CopyDeep());
    }
  }

  std::mt19937_64 rng(options.seed);
  const ProcStats proc0 = ProcStats::Now();
  const Window untraced = RunBursts(*server, data, kBurst,
                                    options.trace ? options.seconds / 2 : options.seconds, rng,
                                    false, options.trace, report, nullptr);
  const ProcStats proc1 = ProcStats::Now();
  report.Note("burst_requests", std::to_string(kBurst));
  report.Note("queue_capacity", std::to_string(kQueueCapacity));
  if (!options.trace) {
    report.SetEndToEnd(setup_s, untraced.burst_ms.BlockPercentile(50.0), untraced.burst_ms,
                       untraced.rate.Median(), untraced.ok, untraced.requests);
    return report;
  }

  const Window overload =
      RunBursts(*server, data, kOverloadBurst, kOverloadSeconds, rng, true, false, report, nullptr);
  TraceFold fold;
  EnableTracing(1 << 17);
  RunBursts(*server, data, kBurst, options.seconds / 2, rng, false, false, report, &fold);
  DisableTracing();
  WriteTrace(options, fold);

  report.SetProcess(proc0, proc1, untraced.requests);
  report.SetTrace(fold, untraced.burst_ms.Mean(), /*all_threads=*/true);
  report.Set("relay.pass_runs", static_cast<double>(pass_runs), "count");
  report.Set("neuron.plans", static_cast<double>(plans), "count");
  report.Set("memory.arena_peak_mb",
             tnp::support::metrics::Registry::Global().GetGauge("memory/arena/bytes").max() /
                 (1024.0 * 1024.0),
             "MiB");
  report.Set("serve.submit_us.p50", untraced.submit_us.Median(), "us");
  report.Set("serve.queue_ms.p50", untraced.queue_ms.Median(), "ms");
  report.Set("serve.queue_ms.p95", untraced.queue_ms.Percentile(95.0), "ms");
  report.Set("serve.run_ms.p50", untraced.run_ms.Median(), "ms");
  report.Set("serve.overhead_ms.p50", untraced.overhead_ms.Median(), "ms");
  report.Set("serve.deliver_ms.p50", untraced.deliver_ms.Median(), "ms");
  report.Set("serve.batch_mean",
             untraced.served > 0 ? untraced.batch_sum / untraced.served : 0.0, "count");
  const double offered = static_cast<double>(std::max<std::int64_t>(overload.requests, 1));
  // Overload bursts: shares of the offered requests, and correct responses
  // per second.
  report.Set("serve.shed_frac", overload.shed / offered, "frac");
  report.Set("serve.fallback_frac", overload.fell_back / offered, "frac");
  report.Set("serve.expired_frac", overload.expired / offered, "frac");
  report.Set("serve.overload_goodput_per_s", overload.rate.Median() * overload.ok / offered,
             "1/s");
  return report;
}

}  // namespace hostbench
