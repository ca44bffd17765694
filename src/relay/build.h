// relay::Build — lower an optimized module to an executable program, the
// analogue of TVM's `relay.build` + graph_executor.GraphModule pair:
//
//   Module mod = frontend::FromKeras(...);
//   mod = core::PartitionForNir(mod, opts);          // optional BYOC step
//   auto compiled = relay::Build(mod, build_options);
//   relay::GraphExecutor exec(compiled);
//   exec.SetInput("data", input);
//   exec.Run();
//   NDArray out = exec.GetOutput(0);
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernels/call.h"
#include "kernels/pack.h"
#include "relay/external.h"
#include "relay/module.h"
#include "support/arena.h"
#include "tune/db.h"

namespace tnp {
namespace relay {

/// One lowered instruction of the linear program. Everything the executor
/// needs is snapshotted at build time (op name, attrs, checked output type,
/// cost descriptor) — no AST node is retained, so lowering a module does not
/// keep the frontend expression graph alive. Fused primitive bodies are
/// inlined into the stream as plain kCallOp instructions sharing a
/// fusion_group id; the group's aggregate cost is charged on exactly one of
/// them (charge == true).
struct Instruction {
  enum class Kind : std::uint8_t {
    kConstant,      ///< materialize an embedded constant
    kCallOp,        ///< single operator call
    kCallExternal,  ///< external (BYOC) subgraph call
    kTuple,         ///< build a tuple value
    kTupleGetItem,  ///< project a tuple field
  };

  Kind kind = Kind::kCallOp;
  int output_slot = -1;
  std::vector<int> input_slots;

  // kCallOp (snapshotted; the AST call node is dropped after lowering)
  std::string op_name;
  Attrs attrs;
  /// The op bound to its kernel (BindOp). Derived from op_name/attrs/types
  /// by Build and again by the artifact loader; never serialized.
  kernels::KernelCall call;
  /// Checked output type (kCallOp / kCallExternal / tuple plumbing) — drives
  /// memory planning.
  Type out_type;
  /// Fusion group this instruction was inlined from (-1 = not fused).
  int fusion_group = -1;
  /// True when this instruction carries `desc` into the simulated clock /
  /// profile. For a fused group only the last instruction charges, with the
  /// whole group's aggregate descriptor.
  bool charge = true;

  // kCallExternal
  int external_index = -1;
  // kTupleGetItem
  int tuple_index = 0;
  // kConstant
  NDArray constant;

  /// Pre-packed panel form of this op's constant weight argument (conv/dense
  /// only; null when the weight is dynamic, the op takes the direct path, or
  /// prepack_weights is off). Shares the module-level PackedWeightsCache
  /// entry, so instructions reusing one constant share one pack; `call`
  /// points at it.
  kernels::PackedMatrixPtr packed_weights;

  /// Cost descriptor (charged kCallOp; externals account internally).
  sim::OpDesc desc;
};

/// Static storage assignment of one slot of the linear program.
struct SlotPlan {
  enum class Kind : std::uint8_t {
    kValue,     ///< runtime-bound Value (graph inputs, tuples, external outputs)
    kConstant,  ///< bound once to an embedded constant tensor
    kArena,     ///< tensor at [offset, offset + bytes) in the shared arena
    kAlias,     ///< shares bytes with another slot (in-place / reshape view)
  };

  Kind kind = Kind::kValue;
  std::int64_t offset = 0;  ///< arena offset (kArena and resolved kAlias)
  std::int64_t bytes = 0;   ///< view size in bytes (kArena / kAlias)
  int alias_of = -1;        ///< kAlias: the input slot whose region is shared
  TensorType type;          ///< view shape/dtype (kArena / kAlias / graph input)
  int first_def = -1;       ///< instruction index producing the slot (-1 = input)
  /// Last instruction index reading the slot's bytes, after tuple-forwarding
  /// propagation and alias extension. INT_MAX for program outputs.
  int last_use = -1;
};

/// Result of the liveness + planning pass over a lowered program: every
/// tensor-valued intermediate is assigned a fixed range of a shared arena,
/// with non-overlapping lifetimes sharing offsets and elementwise/identity
/// ops aliasing their input in place.
struct MemoryPlan {
  static constexpr int kLiveForever = std::numeric_limits<int>::max();

  std::vector<SlotPlan> slots;
  std::int64_t arena_bytes = 0;   ///< planned arena size (with reuse)
  std::int64_t planned_bytes = 0; ///< sum of planned tensor sizes (no reuse)
  int num_arena_slots = 0;
  int num_alias_slots = 0;
};

class CompiledModule {
 public:
  std::vector<Instruction> instructions;
  int num_slots = 0;
  /// Graph input name -> slot.
  std::unordered_map<std::string, int> input_slots;
  /// Slot holding the program result (possibly a tuple value).
  int output_slot = -1;
  int num_outputs = 1;
  std::vector<ExternalModulePtr> externals;
  BuildOptions options;
  /// Static storage assignment computed at build time.
  MemoryPlan memory_plan;
  /// Build-time packed constant weights, keyed by op kind + weight identity
  /// + GEMM config (see pack.h). Instructions hold shared_ptrs into this
  /// cache.
  kernels::PackedWeightsCache packed_weights;
  /// Fingerprint of the tuning DB active when this module was built ("none"
  /// without one). Serialized with the artifact and folded into flow-cache
  /// keys, so artifacts built under different tuning states never mix.
  std::string tuning_fingerprint = "none";

  /// Simulated latency of one run: walks the program accumulating the cost
  /// model's time. It depends only on the compiled program, so executors
  /// never charge it per run.
  sim::SimClock EstimateLatency() const;

  /// Per-operator profile (host instructions + every op inside external
  /// subgraphs), in execution order. Sort by `us` for a hotspot report.
  std::vector<ProfileEntry> Profile() const;

  /// Totals for reports.
  std::int64_t TotalMacs() const;
  int NumExternalOps() const;
};

using CompiledModulePtr = std::shared_ptr<const CompiledModule>;

/// Lower `module` (optimize + codegen external functions + linearize main).
/// The module may be pre-partitioned (global functions with Compiler attrs);
/// plain modules build to a pure host program (the "TVM-only" flow).
CompiledModulePtr Build(const Module& module, const BuildOptions& options = BuildOptions());

/// The GEMM-shaped workloads of a compiled program's host instructions: one
/// per prepack-eligible conv/dense call with a constant weight (deduplicated,
/// in instruction order). This is exactly the set the build consults the
/// tuning DB for — the tuning CLI sweeps it.
std::vector<tune::Workload> CollectGemmWorkloads(const CompiledModule& compiled);

/// Bind every kCallOp of `compiled` to its kernel call (BindOp) and point
/// each call at its instruction's packed weights. Argument types come from
/// the instructions' output types and, for graph inputs, the memory plan.
/// Build and the artifact loader both call it: bound calls are derived,
/// never serialized.
void BindInstructions(CompiledModule& compiled);

/// Stateful executor over a CompiledModule (thread-compatible: use one
/// executor per thread; the CompiledModule itself is immutable and shared).
///
/// Construction binds the program once: it reserves one arena, materializes
/// every planned slot as a view into it, creates a session per external
/// module and resolves every instruction's operands to fixed tensor
/// addresses (tuples and projections resolve away). Run() then walks that
/// bound plan — kernels::Invoke per kernel call, ExternalModule::Run per
/// subgraph — with zero heap allocations in steady state.
///
/// GetOutput returns a view into the executor's arena (or an external
/// session's): the contents stay valid until the next Run() (the view itself
/// keeps the bytes alive even after the executor is destroyed).
class GraphExecutor {
 public:
  explicit GraphExecutor(CompiledModulePtr compiled);

  void SetInput(const std::string& name, NDArray value);

  /// Execute the bound plan numerically.
  void Run();

  int NumOutputs() const { return static_cast<int>(outputs_.size()); }
  NDArray GetOutput(int index = 0) const;

  const CompiledModule& compiled() const { return *compiled_; }

  /// Planned arena footprint in bytes.
  std::int64_t arena_bytes() const { return compiled_->memory_plan.arena_bytes; }

 private:
  /// One bound step: a kernel call (`out` set) or an external subgraph call
  /// (`session` set), with its operands at args_[first_arg, +num_args).
  struct Step {
    const Instruction* inst = nullptr;
    std::size_t first_arg = 0;
    std::size_t num_args = 0;
    NDArray* out = nullptr;
    ExternalSession* session = nullptr;
  };

  CompiledModulePtr compiled_;
  support::Arena arena_;
  /// Per slot: graph inputs, constants and planned arena views.
  std::vector<NDArray> tensors_;
  std::vector<ExternalSessionPtr> sessions_;
  std::vector<const NDArray*> args_;
  std::vector<Step> steps_;
  /// The program result's tensors (one per output).
  std::vector<const NDArray*> outputs_;
};

}  // namespace relay
}  // namespace tnp
