// External codegen/runtime interface — the TVM side of the BYOC contract.
//
// relay::Build looks up a registered ExternalCodegenFn for every global
// function tagged Compiler=<name> and obtains an ExternalModule, which the
// graph executor later invokes like any other instruction. core/ registers
// the "nir" codegen (Relay -> Neuron IR -> NeuronPackage).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "relay/expr.h"
#include "sim/timeline.h"
#include "tensor/ndarray.h"

namespace tnp {
namespace relay {

/// One row of a per-operator profile report (TVM's debug-executor analogue).
struct ProfileEntry {
  std::string name;                                  ///< op / fused-group name
  sim::DeviceKind device = sim::DeviceKind::kTvmCpu; ///< where it runs
  double us = 0.0;                                   ///< simulated time
  std::int64_t macs = 0;
};

/// Per-executor mutable execution state of an ExternalModule — e.g. the
/// Neuron runtime's pre-planned operand arena. The ExternalModule itself is
/// shared and immutable across executors; each GraphExecutor creates its own
/// session once and passes it to every Run, so repeated inference reuses the
/// same buffers instead of allocating.
class ExternalSession {
 public:
  virtual ~ExternalSession() = default;

  /// The subgraph's output tensors. Their addresses are fixed for the
  /// session's lifetime (executors bind them once); each Run rewrites their
  /// contents, which stay valid until the next Run.
  virtual std::span<const NDArray* const> outputs() const = 0;
};

using ExternalSessionPtr = std::shared_ptr<ExternalSession>;

/// Compiled external subgraph, executable by the graph executor.
class ExternalModule {
 public:
  virtual ~ExternalModule() = default;

  /// Create the per-executor execution state Run requires.
  virtual ExternalSessionPtr CreateSession() const = 0;

  /// Execute the subgraph on `inputs` against `session` (created by this
  /// module's CreateSession); the results land in session.outputs().
  virtual void Run(ExternalSession& session, std::span<const NDArray* const> inputs) const = 0;

  /// Add the simulated time of one invocation to `clock`. It depends only on
  /// the compiled subgraph, so it is never charged per run.
  virtual void EstimateLatency(sim::SimClock& clock) const = 0;

  virtual const std::string& name() const = 0;

  /// Number of Neuron ops inside (reporting / ablations).
  virtual int num_ops() const = 0;

  /// Physical resources this subgraph occupies while executing (drives the
  /// pipeline scheduler's exclusivity constraint). Defaults to the CPU.
  virtual std::vector<sim::Resource> resources() const { return {sim::Resource::kCpu}; }

  /// Append one ProfileEntry per internal operator (default: nothing).
  virtual void AppendProfile(std::vector<ProfileEntry>& out) const { (void)out; }
};

using ExternalModulePtr = std::shared_ptr<ExternalModule>;

/// Options controlling relay::Build (the analogue of TVM's PassContext).
struct BuildOptions {
  /// Run FuseOps before lowering (ablation hook).
  bool enable_fusion = true;
  /// Pack constant conv/dense weights into GEMM panel layout at build time
  /// (see kernels/pack.h); steady-state inference then never repacks. Off is
  /// an ablation hook — kernels fall back to packing into scratch per call.
  bool prepack_weights = true;
  /// Fold batch norms into conv weights before lowering (off by default so
  /// latency tables stay comparable; see bench/ablation_bn_fold).
  bool fold_batch_norm = false;
  /// Device executing TVM-native instructions.
  sim::DeviceKind host_device = sim::DeviceKind::kTvmCpu;
  /// Simulated testbed (never null).
  const sim::Testbed* testbed = &sim::Testbed::Dimensity800();
  /// Free-form configuration forwarded to external codegens
  /// (e.g. {"nir.devices", "cpu,apu"}).
  std::map<std::string, std::string> external_config;
};

/// Compiles a Compiler-tagged function to an ExternalModule.
using ExternalCodegenFn =
    std::function<ExternalModulePtr(const FunctionPtr& fn, const std::string& global_name,
                                    const BuildOptions& options)>;

/// Global registry of external codegens keyed by compiler name.
class ExternalCodegenRegistry {
 public:
  static ExternalCodegenRegistry& Global();

  void Register(const std::string& compiler, ExternalCodegenFn fn);
  bool Has(const std::string& compiler) const;
  const ExternalCodegenFn& Get(const std::string& compiler) const;

 private:
  std::map<std::string, ExternalCodegenFn> codegens_;
};

}  // namespace relay
}  // namespace tnp
