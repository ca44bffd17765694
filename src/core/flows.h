// The seven compilation/execution permutations of the paper's evaluation
// (Section 5/6):
//   TVM-only, TVM BYOC with {CPU, APU, CPU+APU}, NeuroPilot-only with
//   {CPU, APU, CPU+APU}.
//
// CompileFlow returns a uniform InferenceSession for each, or a
// FlowUnsupported error carrying why (NeuroPilot-only flows fail when the
// model contains ops outside Neuron's vocabulary or outside the enabled
// devices' support — the paper's missing Figure-4/6 bars).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/nir.h"
#include "relay/module.h"

namespace tnp {
namespace core {

enum class FlowKind : std::uint8_t {
  kTvmOnly,
  kByocCpu,
  kByocApu,
  kByocCpuApu,
  kNpCpu,
  kNpApu,
  kNpCpuApu,
};

inline constexpr FlowKind kAllFlows[] = {
    FlowKind::kTvmOnly, FlowKind::kByocCpu,  FlowKind::kByocApu, FlowKind::kByocCpuApu,
    FlowKind::kNpCpu,   FlowKind::kNpApu,    FlowKind::kNpCpuApu,
};

const char* FlowName(FlowKind flow);

/// Resources a flow occupies while running (pipeline exclusivity, Fig. 5).
std::vector<sim::Resource> FlowResources(FlowKind flow);

/// Uniform inference handle over all seven flows.
class InferenceSession {
 public:
  virtual ~InferenceSession() = default;

  virtual void SetInput(const std::string& name, NDArray value) = 0;
  virtual void Run() = 0;
  virtual int NumOutputs() const = 0;
  virtual NDArray GetOutput(int index = 0) const = 0;

  /// Simulated latency of one Run(): a static property of the compiled
  /// program, computed once when the session is created (usable at full
  /// model scale without running a kernel).
  virtual const sim::SimClock& EstimateLatency() const = 0;

  /// Number of NIR subgraphs (0 for TVM-only; 1 for NeuroPilot-only).
  virtual int NumPartitions() const = 0;
  /// Total ops inside NIR subgraphs.
  virtual int NumExternalOps() const = 0;

  /// Physical resources this compiled model actually occupies. Tighter than
  /// FlowResources(flow): e.g. a BYOC(APU) model whose graph offloads
  /// completely has no host ops and occupies only the APU — which is what
  /// lets the paper's pipeline overlap it with CPU-resident detection.
  virtual std::vector<sim::Resource> UsedResources() const = 0;
};

using InferenceSessionPtr = std::shared_ptr<InferenceSession>;

/// Abstract compiled-artifact cache consulted by CompileFlow (load-or-build).
/// Keys are short opaque content strings assembled by CompileFlow — the
/// module fingerprint plus flow and settings — which the implementation hashes
/// together with its on-disk format version. Implemented by
/// artifact::ArtifactStore; declared here so core/ does not depend on the
/// artifact layer.
class CompiledArtifactCache {
 public:
  virtual ~CompiledArtifactCache() = default;

  /// Return the cached compiled module, or nullptr on a clean miss (no entry
  /// for the key). A present-but-corrupt entry throws a typed error — the
  /// cache never silently recompiles over stale or damaged bytes.
  virtual relay::CompiledModulePtr TryLoadModule(const std::string& key) = 0;
  virtual void SaveModule(const std::string& key,
                          const relay::CompiledModule& compiled) = 0;

  /// Same contract for standalone NeuronPackages (NeuroPilot-only flows).
  virtual neuron::NeuronPackagePtr TryLoadPackage(const std::string& key) = 0;
  virtual void SavePackage(const std::string& key,
                           const neuron::NeuronPackage& package) = 0;
};

struct FlowCompileSettings {
  const sim::Testbed* testbed = &sim::Testbed::Dimensity800();
  neuron::PlannerPolicy policy = neuron::PlannerPolicy::kGreedyCost;
  bool enable_tvm_fusion = true;
  /// Optional load-or-build cache: CompileFlow maps a stored artifact
  /// instead of compiling when the (model, flow, settings) key hits, and
  /// publishes freshly compiled artifacts back. Null disables caching.
  /// Only the built-in testbed is cacheable; custom testbeds bypass the
  /// cache (their cost tables cannot be rebound by name on load).
  std::shared_ptr<CompiledArtifactCache> artifact_cache;
};

/// Compile `module` under `flow`. Throws tnp::Error (kUnsupportedOp /
/// kCompileError) when the flow cannot run the model.
InferenceSessionPtr CompileFlow(const relay::Module& module, FlowKind flow,
                                const FlowCompileSettings& settings = {});

/// Non-throwing variant for benchmark tables: returns nullptr and fills
/// `error` when unsupported.
InferenceSessionPtr TryCompileFlow(const relay::Module& module, FlowKind flow,
                                   std::string* error,
                                   const FlowCompileSettings& settings = {});

}  // namespace core
}  // namespace tnp
