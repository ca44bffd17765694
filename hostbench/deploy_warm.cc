// deploy_warm: the export/deploy flow against a warm artifact store. Set-up
// imports the zoo_infer mix, compiles it cold and fills a fresh store; the
// timed unit is CompileFlow against the warm store, ending when the session
// is ready.
#include <filesystem>
#include <memory>

#include "artifact/store.h"
#include "support/metrics.h"
#include "workloads.h"

namespace hostbench {
namespace {

using tnp::NDArray;
using tnp::artifact::ArtifactKind;

/// Timing decorator around the real store: records, per CompileFlow, when
/// the first cache call arrives (key construction ends), how long loads
/// take, the key size, hits and misses, and the bytes of the mapped files.
class TimedCache final : public tnp::core::CompiledArtifactCache {
 public:
  explicit TimedCache(std::string directory) : store_(std::move(directory)) {}

  struct Unit {
    Clock::time_point begin;
    double first_call_ms = -1.0;
    double load_ms = 0.0;
    double key_bytes = 0.0;
    double mapped_bytes = 0.0;
    int hits = 0;
    int misses = 0;
  };

  /// Start accounting one CompileFlow call.
  void Begin() { unit_ = Unit{Clock::now()}; }
  const Unit& unit() const { return unit_; }

  tnp::relay::CompiledModulePtr TryLoadModule(const std::string& key) override {
    return Load(key, ArtifactKind::kCompiledModule, [&] { return store_.TryLoadModule(key); });
  }
  void SaveModule(const std::string& key, const tnp::relay::CompiledModule& compiled) override {
    store_.SaveModule(key, compiled);
  }
  tnp::neuron::NeuronPackagePtr TryLoadPackage(const std::string& key) override {
    return Load(key, ArtifactKind::kNeuronPackage, [&] { return store_.TryLoadPackage(key); });
  }
  void SavePackage(const std::string& key, const tnp::neuron::NeuronPackage& package) override {
    store_.SavePackage(key, package);
  }

 private:
  template <typename LoadFn>
  auto Load(const std::string& key, ArtifactKind kind, LoadFn load) -> decltype(load()) {
    const auto start = Clock::now();
    if (unit_.first_call_ms < 0.0) {
      unit_.first_call_ms =
          std::chrono::duration<double, std::milli>(start - unit_.begin).count();
    }
    auto loaded = load();
    unit_.load_ms += MsSince(start);
    unit_.key_bytes += static_cast<double>(key.size());
    if (loaded != nullptr) {
      ++unit_.hits;
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(store_.PathFor(key, kind), ec);
      unit_.mapped_bytes += ec ? 0.0 : static_cast<double>(bytes);
    } else {
      ++unit_.misses;
    }
    return loaded;
  }

  tnp::artifact::ArtifactStore store_;
  Unit unit_;
};

struct Entry {
  MixEntry mix;
  std::string span;  ///< "unit:<key>"
  std::size_t model = 0;
  NDArray reference;  ///< the cold-compiled session's output
};

struct Window {
  Samples unit_ms;
  std::vector<Samples> entry_ms;  ///< unit_ms split by mix entry
  Samples key_ms, load_ms, session_ms, key_mb, mapped_mb;
  std::int64_t hits = 0, lookups = 0;
  Samples rate;  ///< per round: deploys per deploy second
  std::int64_t attempted = 0, ok = 0;
};

constexpr double kMiB = 1024.0 * 1024.0;

/// Deploy whole rounds of the mix until `seconds` have passed; the untimed
/// output check of each deployed session runs between units and is not part
/// of the timed figures, but counts against the window.
Window Measure(const std::vector<Entry>& entries, const std::vector<ImportedModel>& models,
               TimedCache& cache, const tnp::core::FlowCompileSettings& settings, double seconds,
               Report& report, TraceFold* fold) {
  Window window;
  window.entry_ms.resize(entries.size());
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < deadline) {
    double round_s = 0.0;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const Entry& entry = entries[e];
      const ImportedModel& model = models[entry.model];
      cache.Begin();
      tnp::core::InferenceSessionPtr session;
      {
        BenchSpan span(entry.span);
        session = tnp::core::CompileFlow(model.module, entry.mix.flow, settings);
      }
      const double ms = MsSince(cache.unit().begin);
      const TimedCache::Unit& unit = cache.unit();
      window.unit_ms.Add(ms);
      window.entry_ms[e].Add(ms);
      round_s += ms / 1000.0;
      window.key_ms.Add(unit.first_call_ms);
      window.load_ms.Add(unit.load_ms);
      window.session_ms.Add(ms - unit.first_call_ms - unit.load_ms);
      window.key_mb.Add(unit.key_bytes / kMiB);
      window.mapped_mb.Add(unit.mapped_bytes / kMiB);
      window.hits += unit.hits;
      window.lookups += unit.hits + unit.misses;
      if (fold != nullptr) fold->Drain();

      // Untimed check: a warm deploy must hit the store and reproduce the
      // cold session's output bitwise.
      session->SetInput(model.input_name, model.input);
      session->Run();
      const bool ok = unit.misses == 0 && unit.hits > 0 &&
                      OutputMatches(session->GetOutput(0), entry.reference, true);
      report.Check(ok);
      ++window.attempted;
      window.ok += ok ? 1 : 0;
    }
    window.rate.Add(static_cast<double>(entries.size()) / round_s);
  }
  return window;
}

}  // namespace

Report RunDeployWarm(const Options& options) {
  Report report;
  std::vector<ImportedModel> models;
  std::vector<Entry> entries;
  std::vector<tnp::core::InferenceSessionPtr> cold;
  std::shared_ptr<TimedCache> cache;
  tnp::core::FlowCompileSettings settings;
  Samples emit_ms, import_ms;
  std::int64_t pass_runs = 0, plans = 0;
  const std::string store_dir = options.work_dir + "/deploy_store";
  int setups = 0;

  const double setup_s = MedianSetupSeconds([&] {
    entries.clear();
    cold.clear();
    models.clear();
    cache.reset();
    std::filesystem::remove_all(store_dir);
    const auto start = Clock::now();
    const std::int64_t passes0 = CounterValue("relay/pass_runs");
    const std::int64_t plans0 = CounterValue("neuron/plans");
    double emit = 0.0, import = 0.0;
    models = ImportMix(options.seed, &emit, &import);
    // A fresh store per set-up, so every set-up compiles cold and writes.
    cache = std::make_shared<TimedCache>(store_dir + "/" + std::to_string(setups++));
    settings.artifact_cache = cache;
    for (const MixEntry& mix : ZooMix()) {
      entries.push_back(Entry{mix, "unit:" + EntryKey(mix), ModelIndex(mix), {}});
      cold.push_back(tnp::core::CompileFlow(models[entries.back().model].module, mix.flow,
                                            settings));
    }
    for (const Entry& entry : entries) {  // warm-up: one warm load per entry
      tnp::core::CompileFlow(models[entry.model].module, entry.mix.flow, settings);
    }
    const double seconds = MsSince(start) / 1000.0;
    emit_ms.Add(emit);
    import_ms.Add(import);
    pass_runs = CounterValue("relay/pass_runs") - passes0;
    plans = CounterValue("neuron/plans") - plans0;
    return seconds;
  });

  // Oracle: the cold-compiled sessions' outputs.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ImportedModel& model = models[entries[i].model];
    cold[i]->SetInput(model.input_name, model.input);
    cold[i]->Run();
    entries[i].reference = cold[i]->GetOutput(0).CopyDeep();
  }
  cold.clear();

  const ProcStats proc0 = ProcStats::Now();
  const Window untraced = Measure(entries, models, *cache, settings,
                                  options.trace ? options.seconds / 2 : options.seconds, report,
                                  nullptr);
  const ProcStats proc1 = ProcStats::Now();
  if (!options.trace) {
    report.SetEndToEnd(setup_s, MedianOfMedians(untraced.entry_ms), untraced.unit_ms,
                       untraced.rate.Median(), untraced.ok,
                       untraced.attempted);
    std::filesystem::remove_all(store_dir);
    return report;
  }

  TraceFold fold;
  EnableTracing(1 << 17);
  Measure(entries, models, *cache, settings, options.seconds / 2, report, &fold);
  DisableTracing();
  WriteTrace(options, fold);
  std::filesystem::remove_all(store_dir);

  report.SetProcess(proc0, proc1, untraced.attempted);
  report.SetTrace(fold, untraced.unit_ms.Mean());
  report.Set("relay.pass_runs", static_cast<double>(pass_runs), "count");
  report.Set("neuron.plans", static_cast<double>(plans), "count");
  report.Set("zoo.emit_ms", emit_ms.Median(), "ms");
  report.Set("frontend.import_ms", import_ms.Median(), "ms");
  report.Set("artifact.key_ms", untraced.key_ms.Median(), "ms");
  report.Set("artifact.key_mb", untraced.key_mb.Median(), "MiB");
  report.Set("artifact.load_ms", untraced.load_ms.Median(), "ms");
  report.Set("artifact.session_ms", untraced.session_ms.Median(), "ms");
  report.Set("artifact.mmap_mb", untraced.mapped_mb.Median(), "MiB");
  report.Set("artifact.hit_frac",
             untraced.lookups > 0 ? static_cast<double>(untraced.hits) / untraced.lookups : 0.0,
             "frac");
  report.Set("memory.arena_peak_mb",
             tnp::support::metrics::Registry::Global().GetGauge("memory/arena/bytes").max() / kMiB,
             "MiB");
  return report;
}

}  // namespace hostbench
