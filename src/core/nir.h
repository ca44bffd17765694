// partition_for_nir + the "nir" external codegen — the glue that makes
// NeuroPilot a TVM BYOC backend (paper Sections 3.1/3.2).
//
// Typical use (mirrors the paper's Listing 2):
//
//   relay::Module mod = frontend::FromPyTorch(...);
//   mod = core::PartitionForNir(mod, opts);           // nir.partition_for_nir
//   auto lib = relay::Build(mod, core::MakeBuildOptions(opts));
//   relay::GraphExecutor m(lib);                      // graph_executor.GraphModule
//   m.SetInput("data", face_region);
//   m.Run();
//   NDArray out = m.GetOutput(0);
#pragma once

#include "neuron/compiler.h"
#include "neuron/runtime.h"
#include "relay/build.h"
#include "relay/byoc_partition.h"

namespace tnp {
namespace core {

struct NirOptions {
  neuron::TargetConfig target = neuron::TargetConfig::CpuApu();
  const sim::Testbed* testbed = &sim::Testbed::Dimensity800();
  neuron::PlannerPolicy policy = neuron::PlannerPolicy::kGreedyCost;
  /// Disable FuseOps on the TVM side (ablation hook).
  bool enable_tvm_fusion = true;
};

/// Partition module["main"] for the NeuroPilot backend: ops with a Neuron
/// lowering supported by at least one enabled target device move into
/// Compiler="nir" regions. Runs InferType + SimplifyExpr first so identity
/// ops (dropout) don't fragment regions.
relay::Module PartitionForNir(const relay::Module& module, const NirOptions& options = {});

/// BuildOptions consistent with `options` (host device, external config).
relay::BuildOptions MakeBuildOptions(const NirOptions& options);

/// Registers the "nir" external codegen (idempotent; called by
/// PartitionForNir and MakeBuildOptions).
void EnsureNirCodegenRegistered();

/// The resources `package`'s placement occupies (CPU first, then APU).
std::vector<sim::Resource> PackageResources(const neuron::NeuronPackage& package);

/// Bridges the Neuron runtime's per-caller execution state into the relay
/// executor's session seam (neuron/ does not link against relay/, so the
/// wrapping happens here).
class NirSession final : public relay::ExternalSession {
 public:
  explicit NirSession(neuron::NeuronPackagePtr package)
      : neuron_session_(std::move(package)) {}

  neuron::NeuronExecutionSession& neuron_session() { return neuron_session_; }
  std::span<const NDArray* const> outputs() const override {
    return neuron_session_.outputs();
  }

 private:
  neuron::NeuronExecutionSession neuron_session_;
};

/// The ExternalModule produced by the nir codegen (exposed for tests and
/// reports: gives access to the compiled NeuronPackage).
class NirExternalModule final : public relay::ExternalModule {
 public:
  NirExternalModule(std::string name, neuron::NeuronPackagePtr package)
      : name_(std::move(name)), package_(std::move(package)) {}

  relay::ExternalSessionPtr CreateSession() const override {
    return std::make_shared<NirSession>(package_);
  }
  void Run(relay::ExternalSession& session,
           std::span<const NDArray* const> inputs) const override {
    static_cast<NirSession&>(session).neuron_session().Run(inputs);
  }
  void EstimateLatency(sim::SimClock& clock) const override {
    clock.Merge(neuron::EstimateLatency(*package_));
  }

  const std::string& name() const override { return name_; }
  int num_ops() const override { return package_->NumOps(); }
  std::vector<sim::Resource> resources() const override { return PackageResources(*package_); }
  void AppendProfile(std::vector<relay::ProfileEntry>& out) const override;

  const neuron::NeuronPackage& package() const { return *package_; }

 private:
  std::string name_;
  neuron::NeuronPackagePtr package_;
};

}  // namespace core
}  // namespace tnp
