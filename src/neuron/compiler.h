// NeuronCompiler — validates a NeuronModel, runs the Execution Planner and
// produces an executable NeuronPackage ("the Runtime will infer the output
// binary after the Compiler has completed its work", paper Section 2.1).
#pragma once

#include <memory>
#include <string>

#include "kernels/call.h"
#include "kernels/pack.h"
#include "neuron/planner.h"

namespace tnp {
namespace neuron {

struct CompilerOptions {
  TargetConfig target = TargetConfig::CpuOnly();
  const sim::Testbed* testbed = &sim::Testbed::Dimensity800();
  PlannerPolicy policy = PlannerPolicy::kGreedyCost;
  /// Pack constant conv/fully-connected weights into GEMM panel layout at
  /// compile time (see kernels/pack.h); sessions then never repack.
  bool prepack_weights = true;
};

/// Static storage assignment of one operand in a compiled package.
struct OperandStorage {
  enum class Kind : std::uint8_t {
    kExternal,  ///< model input, bound by the caller at execution time
    kConstant,  ///< weights/bias, reference the model's captured NDArray
    kArena,     ///< temporary at [offset, offset + bytes) in a session arena
  };
  Kind kind = Kind::kExternal;
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
};

/// Compile-time memory plan: every temporary operand gets a fixed range of
/// a per-session arena, with regions recycled once their last reader has
/// executed (model outputs are never recycled — they survive the run).
struct NeuronMemoryPlan {
  std::vector<OperandStorage> operands;  ///< indexed by OperandId
  std::int64_t arena_bytes = 0;          ///< session arena size (with reuse)
  std::int64_t planned_bytes = 0;        ///< sum of temporary sizes (no reuse)
};

/// Compiled artifact: the model plus its device placement and memory plan.
/// Immutable.
struct NeuronPackage {
  std::string name;
  NeuronModel model;
  ExecutionPlan plan;
  NeuronMemoryPlan memory;
  CompilerOptions options;
  /// Per-operation pre-packed constant weights (indexed by operation;
  /// null for ops without a packable constant weight). Entries are shared
  /// through `packed_weights` so reused constants pack once.
  std::vector<kernels::PackedMatrixPtr> op_packed_weights;
  kernels::PackedWeightsCache packed_weights;
  /// Every operation bound to its kernel (BindOperations), in operation
  /// order. Derived at compile and at load; never serialized.
  std::vector<kernels::KernelCall> calls;
  /// Fingerprint of the tuning DB active when this package was compiled
  /// ("none" without one). Serialized with the artifact so packages built
  /// under different tuning states never mix.
  std::string tuning_fingerprint = "none";

  int NumOps() const { return static_cast<int>(model.operations().size()); }
  int NumOpsOn(sim::DeviceKind device) const;
};

using NeuronPackagePtr = std::shared_ptr<const NeuronPackage>;

/// Bind every operation of `package` to a kernels::KernelCall: the kernel
/// follows the op type and output dtype, the quantization params come from
/// the operands (tensor-oriented, paper Section 3.3), and conv /
/// fully-connected calls point at op_packed_weights. NeuronCompiler::Compile
/// and the artifact loader both call it.
void BindOperations(NeuronPackage& package);

class NeuronCompiler {
 public:
  explicit NeuronCompiler(CompilerOptions options) : options_(std::move(options)) {}

  /// Throws kCompileError / kUnsupportedOp on invalid or unplannable models.
  NeuronPackagePtr Compile(NeuronModel model, const std::string& name) const;

 private:
  CompilerOptions options_;
};

}  // namespace neuron
}  // namespace tnp
