// zoo_infer: one caller, closed loop, InferenceSession::Run() round-robin
// over the fixed model x flow mix at canonical size.
#include <algorithm>
#include <map>

#include "relay/interpreter.h"
#include "relay/pass.h"
#include "support/metrics.h"
#include "workloads.h"

namespace hostbench {
namespace {

using tnp::NDArray;

struct Entry {
  MixEntry mix;
  std::string key;
  std::string span;  ///< "unit:<key>"
  std::size_t model = 0;
  tnp::core::InferenceSessionPtr session;
  Samples ms;
  // Per-Run deltas of the deterministic proxies (untraced runs only).
  std::vector<double> heap_allocs, tensor_allocs, dispatches;
};

double Median(std::vector<double> values) {
  Samples samples;
  for (double v : values) samples.Add(v);
  return samples.Median();
}

struct Window {
  Samples latency;
  Samples rate;  ///< per round: units per Run() second
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
};

/// Run whole rounds of the mix until `seconds` have passed; throughput is
/// taken per round, over the time spent inside Run(). Untraced rounds
/// record the proxies per entry; traced rounds drain the tracer after every
/// Run() into `fold`.
Window Measure(std::vector<Entry>& entries, const std::vector<NDArray>& references,
               const std::vector<bool>& quantized, double seconds, Report& report,
               TraceFold* fold) {
  Window window;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  auto& dispatch = tnp::support::metrics::Registry::Global().GetCounter("kernels/dispatch");
  while (Clock::now() < deadline) {
    double round_s = 0.0;
    for (Entry& entry : entries) {
      const std::uint64_t heap0 = HeapAllocations();
      const std::int64_t tensors0 = NDArray::TotalAllocations();
      const std::int64_t dispatch0 = dispatch.value();
      const auto t0 = Clock::now();
      {
        BenchSpan span(entry.span);
        entry.session->Run();
      }
      const double ms = MsSince(t0);
      const std::uint64_t heap1 = HeapAllocations();
      const std::int64_t tensors1 = NDArray::TotalAllocations();
      const std::int64_t dispatch1 = dispatch.value();
      const bool ok =
          OutputMatches(entry.session->GetOutput(0), references[entry.model], quantized[entry.model]);
      report.Check(ok);
      ++window.attempted;
      window.ok += ok ? 1 : 0;
      round_s += ms / 1000.0;
      window.latency.Add(ms);
      if (fold != nullptr) {
        fold->Drain();
      } else {
        entry.ms.Add(ms);
        entry.heap_allocs.push_back(static_cast<double>(heap1 - heap0));
        entry.tensor_allocs.push_back(static_cast<double>(tensors1 - tensors0));
        entry.dispatches.push_back(static_cast<double>(dispatch1 - dispatch0));
      }
    }
    window.rate.Add(static_cast<double>(entries.size()) / round_s);
  }
  return window;
}

}  // namespace

Report RunZooInfer(const Options& options) {
  Report report;
  std::vector<ImportedModel> models;
  std::vector<Entry> entries;
  Samples emit_ms, import_ms;
  std::map<std::string, Samples> compile_ms;
  std::int64_t pass_runs = 0, plans = 0;

  const double setup_s = MedianSetupSeconds([&] {
    entries.clear();
    models.clear();
    const auto start = Clock::now();
    const std::int64_t passes0 = CounterValue("relay/pass_runs");
    const std::int64_t plans0 = CounterValue("neuron/plans");
    double emit = 0.0, import = 0.0;
    models = ImportMix(options.seed, &emit, &import);
    std::map<std::string, double> compile;
    for (const MixEntry& mix : ZooMix()) {
      Entry entry{mix, EntryKey(mix), "unit:" + EntryKey(mix), ModelIndex(mix), nullptr, {}, {}, {}, {}};
      const auto t0 = Clock::now();
      entry.session = tnp::core::CompileFlow(models[entry.model].module, mix.flow);
      compile[FlowToken(mix.flow)] += MsSince(t0);
      entries.push_back(std::move(entry));
    }
    for (Entry& entry : entries) {  // warm-up: first-touch arenas, lazy packs
      const ImportedModel& model = models[entry.model];
      entry.session->SetInput(model.input_name, model.input);
      entry.session->Run();
    }
    const double seconds = MsSince(start) / 1000.0;
    emit_ms.Add(emit);
    import_ms.Add(import);
    for (const auto& [flow, ms] : compile) compile_ms[flow].Add(ms);
    pass_runs = CounterValue("relay/pass_runs") - passes0;
    plans = CounterValue("neuron/plans") - plans0;
    return seconds;
  });

  // Oracle: the reference interpreter on the typed, unoptimized module.
  std::vector<NDArray> references;
  std::vector<bool> quantized;
  for (const ImportedModel& model : models) {
    const tnp::relay::Module typed = tnp::relay::InferType().Run(model.module);
    tnp::relay::Environment env;
    env[typed.main()->params().at(0).get()] = tnp::relay::Value(model.input);
    references.push_back(tnp::relay::EvalExpr(typed.main()->body(), env).AsTensor());
    quantized.push_back(model.quantized);
  }

  const ProcStats proc0 = ProcStats::Now();
  const Window untraced = Measure(entries, references, quantized,
                                  options.trace ? options.seconds / 2 : options.seconds, report,
                                  nullptr);
  const ProcStats proc1 = ProcStats::Now();
  if (!options.trace) {
    std::vector<Samples> per_entry;
    for (const Entry& entry : entries) per_entry.push_back(entry.ms);
    report.SetEndToEnd(setup_s, MedianOfMedians(per_entry), untraced.latency,
                       untraced.rate.Median(), untraced.ok,
                       untraced.attempted);
    return report;
  }

  TraceFold fold;
  EnableTracing(1 << 17);
  Measure(entries, references, quantized, options.seconds / 2, report, &fold);
  DisableTracing();
  WriteTrace(options, fold);

  report.SetProcess(proc0, proc1, untraced.attempted);
  report.SetTrace(fold, untraced.latency.Mean());
  report.Set("zoo.emit_ms", emit_ms.Median(), "ms");
  report.Set("frontend.import_ms", import_ms.Median(), "ms");
  for (const auto& [flow, ms] : compile_ms) report.Set("compile.cold_ms." + flow, ms.Median(), "ms");
  report.Set("relay.pass_runs", static_cast<double>(pass_runs), "count");
  report.Set("neuron.plans", static_cast<double>(plans), "count");
  report.Set("memory.arena_peak_mb",
             tnp::support::metrics::Registry::Global().GetGauge("memory/arena/bytes").max() /
                 (1024.0 * 1024.0),
             "MiB");
  std::vector<double> estimated, measured;
  for (Entry& entry : entries) {
    const double est_ms = entry.session->EstimateLatency().total_us() / 1000.0;
    estimated.push_back(est_ms);
    measured.push_back(entry.ms.Median());
    report.Set("exec." + entry.key + ".p50_ms", entry.ms.Median(), "ms");
    report.Set("exec." + entry.key + ".heap_allocs", Median(entry.heap_allocs), "count");
    report.Set("exec." + entry.key + ".tensor_allocs", Median(entry.tensor_allocs), "count");
    report.Set("kernels.dispatch_per_run." + entry.key, Median(entry.dispatches), "count");
    report.Set("byoc.partitions." + entry.key, entry.session->NumPartitions(), "count");
    report.Set("byoc.external_ops." + entry.key, entry.session->NumExternalOps(), "count");
    report.Set("sim." + entry.key + ".est_ms", est_ms, "ms");
    const auto [heap_min, heap_max] =
        std::minmax_element(entry.heap_allocs.begin(), entry.heap_allocs.end());
    report.Note("heap_allocs_range." + entry.key,
                std::to_string(static_cast<long long>(*heap_min)) + ".." +
                    std::to_string(static_cast<long long>(*heap_max)));
  }
  report.Set("sim.rank_corr", SpearmanRank(estimated, measured), "rho");
  return report;
}

}  // namespace hostbench
