#include "core/flows.h"

#include <array>
#include <atomic>
#include <iomanip>
#include <iterator>
#include <sstream>

#include "core/relay_to_neuron.h"
#include "neuron/runtime.h"
#include "relay/fingerprint.h"
#include "relay/pass.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "tune/db.h"

namespace tnp {
namespace core {

const char* FlowName(FlowKind flow) {
  switch (flow) {
    case FlowKind::kTvmOnly: return "TVM-only";
    case FlowKind::kByocCpu: return "BYOC(CPU)";
    case FlowKind::kByocApu: return "BYOC(APU)";
    case FlowKind::kByocCpuApu: return "BYOC(CPU+APU)";
    case FlowKind::kNpCpu: return "NP-only(CPU)";
    case FlowKind::kNpApu: return "NP-only(APU)";
    case FlowKind::kNpCpuApu: return "NP-only(CPU+APU)";
  }
  return "?";
}

std::vector<sim::Resource> FlowResources(FlowKind flow) {
  switch (flow) {
    case FlowKind::kTvmOnly:
    case FlowKind::kByocCpu:
    case FlowKind::kNpCpu:
      return {sim::Resource::kCpu};
    case FlowKind::kNpApu:
      return {sim::Resource::kApu};
    case FlowKind::kByocApu:
    case FlowKind::kByocCpuApu:
    case FlowKind::kNpCpuApu:
      return {sim::Resource::kCpu, sim::Resource::kApu};
  }
  return {sim::Resource::kCpu};
}

namespace {

/// Per-run observability shared by both session kinds: the simulated
/// latency lands in a per-flow histogram resolved once per FlowKind (the
/// registry name lookup allocates).
void RecordFlowRun(FlowKind flow, double sim_us) {
  static std::array<std::atomic<support::metrics::Histogram*>, std::size(kAllFlows)> table{};
  std::atomic<support::metrics::Histogram*>& slot = table[static_cast<std::size_t>(flow)];
  support::metrics::Histogram* histogram = slot.load(std::memory_order_acquire);
  if (histogram == nullptr) {
    // Racing first runs resolve the same find-or-create entry.
    histogram = &support::metrics::Registry::Global().GetHistogram(
        std::string("flow/") + FlowName(flow) + "/sim_us");
    slot.store(histogram, std::memory_order_release);
  }
  histogram->Record(sim_us);
}

neuron::TargetConfig TargetOf(FlowKind flow) {
  switch (flow) {
    case FlowKind::kByocCpu:
    case FlowKind::kNpCpu:
      return neuron::TargetConfig::CpuOnly();
    case FlowKind::kByocApu:
    case FlowKind::kNpApu:
      return neuron::TargetConfig::ApuOnly();
    default:
      return neuron::TargetConfig::CpuApu();
  }
}

/// TVM-side session (TVM-only and all BYOC flows).
class TvmSession final : public InferenceSession {
 public:
  TvmSession(FlowKind flow, relay::CompiledModulePtr compiled)
      : flow_(flow),
        compiled_(std::move(compiled)),
        executor_(compiled_),
        estimate_(compiled_->EstimateLatency()) {}

  void SetInput(const std::string& name, NDArray value) override {
    executor_.SetInput(name, std::move(value));
  }
  void Run() override {
    support::TraceScope scope;
    if (scope.armed()) scope.Begin("flow", std::string("Run:") + FlowName(flow_));
    executor_.Run();
    RecordFlowRun(flow_, estimate_.total_us());
    if (scope.armed()) scope.AddArg(support::TraceArg("sim_us", estimate_.total_us()));
  }
  int NumOutputs() const override { return executor_.NumOutputs(); }
  NDArray GetOutput(int index) const override { return executor_.GetOutput(index); }
  const sim::SimClock& EstimateLatency() const override { return estimate_; }
  int NumPartitions() const override { return static_cast<int>(compiled_->externals.size()); }
  int NumExternalOps() const override { return compiled_->NumExternalOps(); }

  std::vector<sim::Resource> UsedResources() const override {
    bool cpu = false;
    bool apu = false;
    for (const auto& inst : compiled_->instructions) {
      if (inst.kind == relay::Instruction::Kind::kCallOp) {
        cpu = true;  // host instruction occupies the CPU
      }
    }
    for (const auto& external : compiled_->externals) {
      for (const sim::Resource resource : external->resources()) {
        if (resource == sim::Resource::kCpu) cpu = true;
        if (resource == sim::Resource::kApu) apu = true;
      }
    }
    std::vector<sim::Resource> result;
    if (cpu) result.push_back(sim::Resource::kCpu);
    if (apu) result.push_back(sim::Resource::kApu);
    if (result.empty()) result.push_back(sim::Resource::kCpu);
    return result;
  }

 private:
  FlowKind flow_;
  relay::CompiledModulePtr compiled_;
  relay::GraphExecutor executor_;
  sim::SimClock estimate_;
};

/// NeuroPilot-only session: the whole model is one NeuronPackage; no TVM
/// runtime is involved at execution time.
class NpSession final : public InferenceSession {
 public:
  NpSession(FlowKind flow, neuron::NeuronPackagePtr package,
            std::vector<std::string> input_names, int num_outputs)
      : flow_(flow),
        package_(std::move(package)),
        neuron_session_(package_),
        input_names_(std::move(input_names)),
        num_outputs_(num_outputs) {
    inputs_.resize(input_names_.size());
    for (const NDArray& input : inputs_) input_ptrs_.push_back(&input);
  }

  void SetInput(const std::string& name, NDArray value) override {
    for (std::size_t i = 0; i < input_names_.size(); ++i) {
      if (input_names_[i] == name) {
        inputs_[i] = std::move(value);
        return;
      }
    }
    TNP_THROW(kInvalidArgument) << "no model input named '" << name << "'";
  }

  void Run() override {
    support::TraceScope scope;
    if (scope.armed()) scope.Begin("flow", std::string("Run:") + FlowName(flow_));
    neuron_session_.Run(input_ptrs_);
    const double sim_us = neuron_session_.estimate().total_us();
    RecordFlowRun(flow_, sim_us);
    if (scope.armed()) scope.AddArg(support::TraceArg("sim_us", sim_us));
  }

  int NumOutputs() const override { return num_outputs_; }

  NDArray GetOutput(int index) const override {
    TNP_CHECK(index >= 0 && index < num_outputs_) << "output index out of range";
    const NDArray& output = *neuron_session_.outputs()[static_cast<std::size_t>(index)];
    TNP_CHECK(output.defined()) << "output " << index << " not produced (did you call Run()?)";
    return output;
  }

  const sim::SimClock& EstimateLatency() const override { return neuron_session_.estimate(); }

  int NumPartitions() const override { return 1; }
  int NumExternalOps() const override { return package_->NumOps(); }

  std::vector<sim::Resource> UsedResources() const override {
    std::vector<sim::Resource> result = PackageResources(*package_);
    if (result.empty()) result.push_back(sim::Resource::kCpu);
    return result;
  }

 private:
  FlowKind flow_;
  neuron::NeuronPackagePtr package_;
  /// Pre-planned operand arena and bound operations, reused across Run()
  /// calls (no heap allocation per frame once the session exists).
  neuron::NeuronExecutionSession neuron_session_;
  std::vector<std::string> input_names_;
  std::vector<NDArray> inputs_;
  std::vector<const NDArray*> input_ptrs_;
  int num_outputs_ = 1;
};

/// Build an NP-only session around a compiled (or freshly mapped) package:
/// input names come from the model's input operands — the Relay→Neuron
/// converter names them after the function parameters, so SetInput keys are
/// identical whether the package was compiled or loaded from an artifact.
InferenceSessionPtr MakeNpSession(FlowKind flow, neuron::NeuronPackagePtr package) {
  std::vector<std::string> input_names;
  for (const neuron::OperandId id : package->model.model_inputs()) {
    input_names.push_back(package->model.operand(id).name);
  }
  const int num_outputs = static_cast<int>(package->model.model_outputs().size());
  return std::make_shared<NpSession>(flow, std::move(package), std::move(input_names),
                                     num_outputs);
}

/// Content key for the artifact cache: the module's fingerprint (structure +
/// constant weights, hashed in one streaming pass) plus every compile knob
/// that changes the produced artifact — a few dozen bytes whatever the model
/// size. The cache implementation hashes this together with its on-disk
/// format version.
std::string FlowCacheKey(const relay::Module& module, FlowKind flow,
                         const FlowCompileSettings& settings) {
  std::ostringstream key;
  key << std::hex << std::setw(16) << std::setfill('0') << relay::ModuleFingerprint(module)
      << std::dec << '|' << FlowName(flow) << "|policy=" << static_cast<int>(settings.policy)
      << "|fusion=" << (settings.enable_tvm_fusion ? 1 : 0)
      << "|tune=" << tune::ActiveTuningFingerprint();
  return key.str();
}

bool IsNpFlow(FlowKind flow) {
  return flow == FlowKind::kNpCpu || flow == FlowKind::kNpApu ||
         flow == FlowKind::kNpCpuApu;
}

}  // namespace

InferenceSessionPtr CompileFlow(const relay::Module& module, FlowKind flow,
                                const FlowCompileSettings& settings) {
  EnsureNirCodegenRegistered();
  static support::metrics::Counter& compiles =
      support::metrics::Registry::Global().GetCounter("flow/compiles");
  compiles.Increment();
  TNP_TRACE_SCOPE("flow", std::string("CompileFlow:") + FlowName(flow));

  // Load-or-build: consult the artifact cache before compiling. Only the
  // built-in testbed is cacheable — custom cost tables cannot be rebound by
  // name when the artifact is mapped in another process.
  const bool cacheable = settings.artifact_cache != nullptr &&
                         settings.testbed == &sim::Testbed::Dimensity800();
  std::string cache_key;
  if (cacheable) {
    cache_key = FlowCacheKey(module, flow, settings);
    if (IsNpFlow(flow)) {
      if (neuron::NeuronPackagePtr package =
              settings.artifact_cache->TryLoadPackage(cache_key)) {
        return MakeNpSession(flow, std::move(package));
      }
    } else {
      if (relay::CompiledModulePtr compiled =
              settings.artifact_cache->TryLoadModule(cache_key)) {
        return std::make_shared<TvmSession>(flow, std::move(compiled));
      }
    }
  }

  if (flow == FlowKind::kTvmOnly) {
    relay::BuildOptions options;
    options.enable_fusion = settings.enable_tvm_fusion;
    options.host_device = sim::DeviceKind::kTvmCpu;
    options.testbed = settings.testbed;
    relay::CompiledModulePtr compiled = relay::Build(module, options);
    if (cacheable) settings.artifact_cache->SaveModule(cache_key, *compiled);
    return std::make_shared<TvmSession>(flow, std::move(compiled));
  }

  if (flow == FlowKind::kByocCpu || flow == FlowKind::kByocApu ||
      flow == FlowKind::kByocCpuApu) {
    NirOptions options;
    options.target = TargetOf(flow);
    options.testbed = settings.testbed;
    options.policy = settings.policy;
    options.enable_tvm_fusion = settings.enable_tvm_fusion;
    const relay::Module partitioned = PartitionForNir(module, options);
    relay::CompiledModulePtr compiled =
        relay::Build(partitioned, MakeBuildOptions(options));
    if (cacheable) settings.artifact_cache->SaveModule(cache_key, *compiled);
    return std::make_shared<TvmSession>(flow, std::move(compiled));
  }

  // NeuroPilot-only: convert the *entire* model through the Relay->Neuron
  // converter; any op without a Neuron mapping aborts compilation (this is
  // what produces the paper's missing bars).
  const relay::Module prepared =
      relay::Sequential({relay::InferType(), relay::SimplifyExpr(), relay::FoldConstant(),
                         relay::InferType()})
          .Run(module);
  const relay::FunctionPtr& main_fn = prepared.main();

  RelayToNeuronConverter converter;
  neuron::NeuronModel model = converter.Convert(main_fn);

  neuron::CompilerOptions compiler_options;
  compiler_options.target = TargetOf(flow);
  compiler_options.testbed = settings.testbed;
  compiler_options.policy = settings.policy;
  const neuron::NeuronCompiler compiler(compiler_options);
  neuron::NeuronPackagePtr package = compiler.Compile(std::move(model), "np_only");
  if (cacheable) settings.artifact_cache->SavePackage(cache_key, *package);
  return MakeNpSession(flow, std::move(package));
}

InferenceSessionPtr TryCompileFlow(const relay::Module& module, FlowKind flow,
                                   std::string* error, const FlowCompileSettings& settings) {
  try {
    return CompileFlow(module, flow, settings);
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return nullptr;
  }
}

}  // namespace core
}  // namespace tnp
