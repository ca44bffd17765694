#include "relay/build.h"

#include <algorithm>
#include <chrono>

#include "kernels/conv.h"
#include "relay/interpreter.h"
#include "relay/op.h"
#include "relay/pass.h"
#include "relay/visitor.h"
#include "support/memplan.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace tnp {
namespace relay {

namespace {

std::vector<ExprPtr> TopLevelPostOrder(const ExprPtr& body) {
  struct Collector : ExprVisitor {
    Collector() { visit_function_bodies_ = false; }
    std::vector<ExprPtr> nodes;
    void VisitVar(const VarPtr& v) override { nodes.push_back(v); }
    void VisitConstant(const ConstantPtr& c) override { nodes.push_back(c); }
    void VisitCall(const CallPtr& c) override { nodes.push_back(c); }
    void VisitTuple(const TuplePtr& t) override { nodes.push_back(t); }
    void VisitTupleGetItem(const TupleGetItemPtr& g) override { nodes.push_back(g); }
  };
  Collector collector;
  collector.Visit(body);
  return std::move(collector.nodes);
}

std::int64_t TypeBytes(const Type& type) {
  if (type.IsTensor()) return type.AsTensor().NumBytes();
  if (type.IsTuple()) {
    std::int64_t total = 0;
    for (const auto& field : type.AsTuple()) total += TypeBytes(field);
    return total;
  }
  return 0;
}

bool TypeIsInt8(const Type& type) {
  if (type.IsTensor()) return type.AsTensor().dtype == DType::kInt8;
  if (type.IsTuple()) {
    for (const auto& field : type.AsTuple()) {
      if (TypeIsInt8(field)) return true;
    }
  }
  return false;
}

/// Cost descriptor of one plain op call (types must be inferred).
sim::OpDesc DescribeOpCall(const CallPtr& call) {
  const OpDef& def = OpRegistry::Global().Get(call->op_name());
  sim::OpDesc desc;
  desc.category = def.category;
  desc.name = call->op_name();
  std::vector<Type> arg_types;
  for (const auto& arg : call->args()) {
    arg_types.push_back(arg->checked_type());
    if (arg->kind() == ExprKind::kConstant) {
      desc.weight_bytes += TypeBytes(arg->checked_type());
    } else {
      desc.input_bytes += TypeBytes(arg->checked_type());
    }
  }
  desc.output_bytes = TypeBytes(call->checked_type());
  desc.macs = CallMacs(*call, arg_types, call->checked_type());
  desc.int8 = TypeIsInt8(call->checked_type());
  return desc;
}

/// Aggregate cost descriptor of a fused primitive call: MACs add up, the
/// launch overhead is paid once, and intermediate tensors never leave the
/// register/cache tile so only the group's external inputs and final output
/// count as memory traffic.
sim::OpDesc DescribePrimitiveCall(const CallPtr& call) {
  const FunctionPtr& fn = call->fn();
  sim::OpDesc desc;
  desc.name = "fused";
  desc.fused_ops = 0;
  std::int64_t best_macs = -1;
  for (const auto& node : PostOrder(fn->body())) {
    if (node->kind() != ExprKind::kCall) continue;
    const auto inner = std::static_pointer_cast<Call>(node);
    if (inner->callee_kind() != CalleeKind::kOp) continue;
    ++desc.fused_ops;
    desc.name += "." + inner->op_name();
    std::vector<Type> arg_types;
    for (const auto& arg : inner->args()) {
      arg_types.push_back(arg->checked_type());
      if (arg->kind() == ExprKind::kConstant) desc.weight_bytes += TypeBytes(arg->checked_type());
    }
    const std::int64_t macs = CallMacs(*inner, arg_types, inner->checked_type());
    desc.macs += macs;
    if (macs > best_macs) {
      best_macs = macs;
      desc.category = OpRegistry::Global().Get(inner->op_name()).category;
    }
  }
  for (const auto& arg : call->args()) desc.input_bytes += TypeBytes(arg->checked_type());
  desc.output_bytes = TypeBytes(call->checked_type());
  desc.int8 = TypeIsInt8(call->checked_type());
  if (desc.fused_ops == 0) desc.fused_ops = 1;
  return desc;
}

/// Linearizer: lowers expression trees (main body and, recursively, fused
/// primitive bodies) into the flat instruction stream, snapshotting op
/// names/attrs/types so no AST node survives into the CompiledModule.
class Lowerer {
 public:
  Lowerer(CompiledModule* compiled, const std::unordered_map<std::string, int>* external_index)
      : compiled_(compiled), external_index_(external_index) {}

  int next_slot = 0;

  /// Lower `body` under `scope` (Expr* -> slot for params and shared
  /// subtrees). `fusion_group` tags every emitted instruction (-1 = host
  /// ops of main). Returns the slot holding the body's value.
  int LowerBody(const ExprPtr& body, std::unordered_map<const Expr*, int> scope,
                int fusion_group) {
    for (const auto& node : TopLevelPostOrder(body)) {
      if (scope.count(node.get()) != 0) continue;  // params / shared subtrees

      Instruction inst;
      inst.fusion_group = fusion_group;
      // Instructions inlined from a fused primitive charge nothing
      // individually; the group's aggregate descriptor lands on its last
      // instruction (see the kFunction case below).
      inst.charge = fusion_group < 0;
      switch (node->kind()) {
        case ExprKind::kVar:
          TNP_THROW(kCompileError) << "free variable '"
                                   << std::static_pointer_cast<Var>(node)->name()
                                   << "' is not a parameter of main";
        case ExprKind::kConstant:
          inst.kind = Instruction::Kind::kConstant;
          inst.constant = std::static_pointer_cast<Constant>(node)->data();
          inst.out_type = node->checked_type();
          break;
        case ExprKind::kCall: {
          const auto call = std::static_pointer_cast<Call>(node);
          if (call->callee_kind() == CalleeKind::kFunction) {
            TNP_CHECK(call->fn()->IsPrimitive()) << "non-primitive embedded function at build";
            scope[node.get()] = InlinePrimitive(call, scope);
            continue;
          }
          for (const auto& arg : call->args()) inst.input_slots.push_back(scope.at(arg.get()));
          inst.out_type = call->checked_type();
          if (call->callee_kind() == CalleeKind::kOp) {
            inst.kind = Instruction::Kind::kCallOp;
            inst.op_name = call->op_name();
            inst.attrs = call->attrs();
            if (inst.charge) inst.desc = DescribeOpCall(call);
          } else {
            const auto it = external_index_->find(call->op_name());
            if (it == external_index_->end()) {
              TNP_THROW(kCompileError)
                  << "call to global '@" << call->op_name() << "' which is not external";
            }
            inst.kind = Instruction::Kind::kCallExternal;
            inst.external_index = it->second;
          }
          break;
        }
        case ExprKind::kTuple: {
          const auto tuple = std::static_pointer_cast<Tuple>(node);
          inst.kind = Instruction::Kind::kTuple;
          for (const auto& field : tuple->fields()) {
            inst.input_slots.push_back(scope.at(field.get()));
          }
          inst.out_type = node->checked_type();
          break;
        }
        case ExprKind::kTupleGetItem: {
          const auto get = std::static_pointer_cast<TupleGetItem>(node);
          inst.kind = Instruction::Kind::kTupleGetItem;
          inst.input_slots.push_back(scope.at(get->tuple().get()));
          inst.tuple_index = get->index();
          inst.out_type = node->checked_type();
          break;
        }
        case ExprKind::kFunction:
          continue;  // embedded primitive bodies are materialized via their call
      }

      inst.output_slot = next_slot;
      scope[node.get()] = next_slot;
      ++next_slot;
      compiled_->instructions.push_back(std::move(inst));
    }
    return scope.at(body.get());
  }

 private:
  /// Inline a fused primitive call into the instruction stream. The body's
  /// intermediates become ordinary planned slots; the group's aggregate cost
  /// descriptor is charged once, on the instruction producing the group's
  /// result, so simulated latency and profiles match the un-inlined form.
  int InlinePrimitive(const CallPtr& call, const std::unordered_map<const Expr*, int>& scope) {
    const FunctionPtr& fn = call->fn();
    TNP_CHECK_EQ(fn->params().size(), call->args().size());
    std::unordered_map<const Expr*, int> inner;
    for (std::size_t i = 0; i < call->args().size(); ++i) {
      inner[fn->params()[i].get()] = scope.at(call->args()[i].get());
    }
    const int group = next_group_++;
    const std::size_t first_inst = compiled_->instructions.size();
    const int result_slot = LowerBody(fn->body(), std::move(inner), group);
    // Charge the group's cost on its last instruction (degenerate bodies —
    // a bare param — emit none and cost nothing).
    if (compiled_->instructions.size() > first_inst) {
      Instruction& last = compiled_->instructions.back();
      last.charge = true;
      last.desc = DescribePrimitiveCall(call);
    }
    return result_slot;
  }

  CompiledModule* compiled_;
  const std::unordered_map<std::string, int>* external_index_;
  int next_group_ = 0;
};

/// One prepack-eligible conv/dense call found by ForEachPrepackSite.
struct PrepackSite {
  bool conv = false;            ///< conv2d vs dense
  bool int8 = false;
  std::int64_t groups = 1;      ///< conv groups (1 for dense)
  const NDArray* weight = nullptr;
  tune::Workload workload;      ///< the GEMM the runtime kernel will execute
};

/// Walk the host instruction stream and call `fn(inst, site)` for every
/// conv/dense kCallOp with a constant, pack-eligible weight. One sweep
/// shared by PrepackConstantWeights and CollectGemmWorkloads so the tuner
/// tunes exactly the GEMMs the build will look up.
template <typename Fn>
void ForEachPrepackSite(CompiledModule* compiled, Fn&& fn) {
  std::unordered_map<int, const NDArray*> constants;
  for (const auto& inst : compiled->instructions) {
    if (inst.kind == Instruction::Kind::kConstant) {
      constants[inst.output_slot] = &inst.constant;
    }
  }
  for (auto& inst : compiled->instructions) {
    if (inst.kind != Instruction::Kind::kCallOp || inst.input_slots.size() < 2) continue;
    const kernels::KernelId id = inst.call.id;
    const bool conv = id == kernels::KernelId::kConv2dF32 || id == kernels::KernelId::kConv2dS8;
    const bool dense = id == kernels::KernelId::kDenseF32 || id == kernels::KernelId::kDenseS8;
    if (!conv && !dense) continue;
    const auto it = constants.find(inst.input_slots[1]);
    if (it == constants.end()) continue;  // dynamic weight: runtime fallback
    const NDArray& weight = *it->second;
    const bool int8 = weight.dtype() == DType::kInt8;
    if (!int8 && weight.dtype() != DType::kFloat32) continue;
    if (!inst.out_type.IsTensor()) continue;
    const TensorType& out = inst.out_type.AsTensor();

    PrepackSite site;
    site.conv = conv;
    site.int8 = int8;
    site.weight = &weight;
    site.workload.dtype = int8 ? DType::kInt8 : DType::kFloat32;
    if (conv) {
      if (weight.shape().rank() != 4 || out.shape.rank() != 4) continue;
      site.groups = inst.call.conv.groups;
      if (site.groups <= 0 || weight.shape()[0] % site.groups != 0) continue;
      if (!kernels::Conv2DUsesPackedWeights(weight.shape()[0] / site.groups)) continue;
      // The im2col GEMM: (co_g x k) panels times (k x out-pixels).
      site.workload.op = "conv2d";
      site.workload.m = weight.shape()[0] / site.groups;
      site.workload.k = weight.shape()[1] * weight.shape()[2] * weight.shape()[3];
      site.workload.n = out.shape[2] * out.shape[3];
    } else {
      if (weight.shape().rank() != 2 || out.shape.rank() != 2) continue;
      // Dense: (rows x k) activations times (k x units) panels.
      site.workload.op = "dense";
      site.workload.m = out.shape[0];
      site.workload.k = weight.shape()[1];
      site.workload.n = weight.shape()[0];
    }
    if (site.workload.m <= 0 || site.workload.k <= 0 || site.workload.n <= 0) continue;
    fn(inst, site);
  }
}

/// Pack constant conv/dense weights into GEMM panel layout once, at build
/// time (see kernels/pack.h), under the tuning DB's winning config for each
/// workload (untuned defaults on miss). The weight's identity is its data
/// pointer plus the chosen config — instructions sharing one constant and
/// one schedule share one cache entry, and fused primitive bodies are
/// already inlined as plain kCallOp instructions so they are covered by the
/// same sweep.
void PrepackConstantWeights(CompiledModule* compiled) {
  ForEachPrepackSite(compiled, [&](Instruction& inst, const PrepackSite& site) {
    const kernels::GemmConfig config = tune::TunedConfigFor(site.workload);
    const NDArray& weight = *site.weight;
    const void* identity = weight.RawData();

    std::string key = (site.conv ? "conv/" : "dense/");
    key += site.int8 ? "s8/" : "f32/";
    key += std::to_string(site.groups) + "/" +
           std::to_string(reinterpret_cast<std::uintptr_t>(identity)) + "/" +
           config.ToString();
    inst.packed_weights = compiled->packed_weights.GetOrPack(key, [&] {
      if (site.conv) {
        return site.int8 ? kernels::PackConvWeightsS8(weight, site.groups, config)
                         : kernels::PackConvWeightsF32(weight, site.groups, config);
      }
      return site.int8 ? kernels::PackDenseWeightsS8(weight, config)
                       : kernels::PackDenseWeightsF32(weight, config);
    });
    inst.call.packed_weights = inst.packed_weights.get();
  });
}

/// In-place aliasing classes: which kCallOp instructions may write their
/// output over their first input's arena region. Every kernel listed is
/// element-local (out[i] depends only on in[i] at the same flat index).
enum class AliasClass {
  kNone,
  kIdentity,   ///< pure copy / view: reshape, batch_flatten, dropout
  kUnary,      ///< out[i] = f(in[i]), same shape and dtype
  kBinaryLhs,  ///< out[i] = f(lhs[i], rhs[...]), lhs shape must equal out shape
};

AliasClass AliasClassOf(kernels::KernelId id) {
  using kernels::KernelId;
  switch (id) {
    case KernelId::kCopy:
      return AliasClass::kIdentity;
    case KernelId::kReluF32:
    case KernelId::kReluS8:
    case KernelId::kLeakyRelu:
    case KernelId::kSigmoid:
    case KernelId::kTanh:
    case KernelId::kExp:
    case KernelId::kSqrt:
    case KernelId::kClip:
    case KernelId::kRequantize:
      return AliasClass::kUnary;
    case KernelId::kBinary:
    case KernelId::kQAdd:
    case KernelId::kQMul:
      return AliasClass::kBinaryLhs;
    default:
      return AliasClass::kNone;
  }
}

/// Liveness analysis + greedy best-fit storage assignment over the linear
/// program. Tensor outputs of host ops live in one shared arena; a slot's
/// region is recycled once its last reader has executed. Tuple/TupleGetItem
/// instructions forward references to their inputs' storage, so their input
/// lifetimes are extended to the forwarding value's own last use (computed
/// by a reverse sweep). Elementwise/identity ops alias their input's region
/// in place when they are its final reader.
MemoryPlan PlanMemory(const CompiledModule& compiled) {
  const int n_slots = compiled.num_slots;
  const int n_insts = static_cast<int>(compiled.instructions.size());

  std::vector<int> first_def(static_cast<std::size_t>(n_slots), -1);
  std::vector<int> last_use(static_cast<std::size_t>(n_slots), -1);
  for (int i = 0; i < n_insts; ++i) {
    const Instruction& inst = compiled.instructions[static_cast<std::size_t>(i)];
    for (const int slot : inst.input_slots) last_use[static_cast<std::size_t>(slot)] = i;
    first_def[static_cast<std::size_t>(inst.output_slot)] = i;
  }
  // The program result must survive past the last instruction (GetOutput).
  last_use[static_cast<std::size_t>(compiled.output_slot)] = MemoryPlan::kLiveForever;
  // Reverse sweep: a tuple (or projection) holds references into its inputs'
  // storage, so those inputs stay live as long as the forwarding value does.
  // Reverse order makes the propagation transitive through chains like
  // slot -> tuple -> get_item.
  for (int i = n_insts - 1; i >= 0; --i) {
    const Instruction& inst = compiled.instructions[static_cast<std::size_t>(i)];
    if (inst.kind != Instruction::Kind::kTuple &&
        inst.kind != Instruction::Kind::kTupleGetItem) {
      continue;
    }
    const int out_lu = last_use[static_cast<std::size_t>(inst.output_slot)];
    for (const int slot : inst.input_slots) {
      last_use[static_cast<std::size_t>(slot)] =
          std::max(last_use[static_cast<std::size_t>(slot)], out_lu);
    }
  }

  MemoryPlan plan;
  plan.slots = compiled.memory_plan.slots;  // graph-input types recorded by Build
  plan.slots.resize(static_cast<std::size_t>(n_slots));
  for (int s = 0; s < n_slots; ++s) {
    plan.slots[static_cast<std::size_t>(s)].first_def = first_def[static_cast<std::size_t>(s)];
    plan.slots[static_cast<std::size_t>(s)].last_use = last_use[static_cast<std::size_t>(s)];
  }

  support::LinearMemoryPlanner planner;
  std::vector<int> region_of(static_cast<std::size_t>(n_slots), -1);

  for (int i = 0; i < n_insts; ++i) {
    const Instruction& inst = compiled.instructions[static_cast<std::size_t>(i)];
    planner.BeginStep(i);
    SlotPlan& out = plan.slots[static_cast<std::size_t>(inst.output_slot)];

    if (inst.kind == Instruction::Kind::kConstant) {
      out.kind = SlotPlan::Kind::kConstant;
      continue;
    }
    if (inst.kind != Instruction::Kind::kCallOp || !inst.out_type.IsTensor()) {
      continue;  // kValue: tuples, projections, external outputs
    }

    const TensorType& out_type = inst.out_type.AsTensor();
    const std::int64_t out_bytes = out_type.NumBytes();
    // Dead outputs still need a buffer for the kernel to write into; they
    // just expire immediately.
    const int lu = std::max(last_use[static_cast<std::size_t>(inst.output_slot)], i);

    // Try to run the op in place over its first input's region.
    const AliasClass alias_class = AliasClassOf(inst.call.id);
    if (alias_class != AliasClass::kNone && !inst.input_slots.empty()) {
      const int in_slot = inst.input_slots.front();
      const int in_region = region_of[static_cast<std::size_t>(in_slot)];
      const SlotPlan& in_plan = plan.slots[static_cast<std::size_t>(in_slot)];
      bool ok = in_region >= 0;  // input must itself be arena-backed
      if (ok && alias_class == AliasClass::kIdentity) {
        // A copy-free view: safe even when the input stays live, because the
        // bytes are identical — only the region's lifetime must cover both.
        ok = in_plan.type.NumBytes() == out_bytes && in_plan.type.dtype == out_type.dtype;
      } else if (ok) {
        // Destructive in-place: this instruction must be the final reader of
        // the region (aliases included — the region's last_use covers them).
        ok = in_plan.type.shape == out_type.shape && in_plan.type.dtype == out_type.dtype &&
             planner.region(in_region).last_use <= i;
      }
      if (ok) {
        planner.ExtendLifetime(in_region, lu);
        region_of[static_cast<std::size_t>(inst.output_slot)] = in_region;
        out.kind = SlotPlan::Kind::kAlias;
        out.alias_of = in_slot;
        out.offset = plan.slots[static_cast<std::size_t>(in_slot)].offset;
        out.bytes = out_bytes;
        out.type = out_type;
        ++plan.num_alias_slots;
        continue;
      }
    }

    const int region = planner.Allocate(out_bytes, lu);
    region_of[static_cast<std::size_t>(inst.output_slot)] = region;
    out.kind = SlotPlan::Kind::kArena;
    out.offset = planner.region(region).offset;
    out.bytes = out_bytes;
    out.type = out_type;
    ++plan.num_arena_slots;
  }

  // Publish each region's final lifetime (after all alias extensions) so the
  // overlap invariant is directly checkable: two arena-backed slots of
  // different regions whose byte ranges intersect must have disjoint
  // [first_def, last_use] windows.
  for (int s = 0; s < n_slots; ++s) {
    if (region_of[static_cast<std::size_t>(s)] >= 0) {
      plan.slots[static_cast<std::size_t>(s)].last_use =
          planner.region(region_of[static_cast<std::size_t>(s)]).last_use;
    }
  }

  plan.arena_bytes = planner.arena_bytes();
  plan.planned_bytes = planner.total_bytes();
  return plan;
}

}  // namespace

sim::SimClock CompiledModule::EstimateLatency() const {
  sim::SimClock clock;
  const sim::CostModel cost_model(*options.testbed);
  for (const auto& inst : instructions) {
    switch (inst.kind) {
      case Instruction::Kind::kCallOp:
        if (inst.charge) {
          clock.AddOp(inst.desc, options.host_device,
                      cost_model.OpMicros(inst.desc, options.host_device));
        }
        break;
      case Instruction::Kind::kCallExternal:
        externals[static_cast<std::size_t>(inst.external_index)]->EstimateLatency(clock);
        break;
      default:
        break;  // constants / tuple plumbing are free
    }
  }
  return clock;
}

std::vector<ProfileEntry> CompiledModule::Profile() const {
  std::vector<ProfileEntry> entries;
  const sim::CostModel cost_model(*options.testbed);
  for (const auto& inst : instructions) {
    switch (inst.kind) {
      case Instruction::Kind::kCallOp:
        if (inst.charge) {
          entries.push_back(ProfileEntry{
              inst.desc.name, options.host_device,
              cost_model.OpMicros(inst.desc, options.host_device), inst.desc.macs});
        }
        break;
      case Instruction::Kind::kCallExternal:
        externals[static_cast<std::size_t>(inst.external_index)]->AppendProfile(entries);
        break;
      default:
        break;
    }
  }
  return entries;
}

std::int64_t CompiledModule::TotalMacs() const {
  std::int64_t total = 0;
  for (const auto& inst : instructions) total += inst.desc.macs;
  return total;
}

int CompiledModule::NumExternalOps() const {
  int total = 0;
  for (const auto& external : externals) total += external->num_ops();
  return total;
}

CompiledModulePtr Build(const Module& module, const BuildOptions& options) {
  support::TraceScope build_scope;
  if (build_scope.armed()) build_scope.Begin("relay.build", "relay::Build");
  // Standard optimization pipeline (the analogue of opt_level=3). InferType
  // runs again before FuseOps because SimplifyExpr/FoldConstant rebuild
  // nodes without cached types.
  std::vector<Pass> pipeline = {InferType(), SimplifyExpr(), FoldConstant(), InferType()};
  if (options.fold_batch_norm) pipeline.push_back(FoldBatchNorm());
  if (options.enable_fusion) pipeline.push_back(FuseOps());
  pipeline.push_back(InferType());
  const Module optimized = Sequential(pipeline).Run(module);

  auto compiled = std::make_shared<CompiledModule>();
  compiled->options = options;

  // Codegen every external function.
  std::unordered_map<std::string, int> external_index;
  for (const auto& [name, fn] : optimized.functions()) {
    const std::string compiler = fn->compiler();
    if (compiler.empty()) continue;
    const auto& codegen = ExternalCodegenRegistry::Global().Get(compiler);
    external_index[name] = static_cast<int>(compiled->externals.size());
    compiled->externals.push_back(codegen(fn, name, options));
  }

  // Linearize main (fused primitive bodies inline into the same stream so
  // their intermediates are planned like any other slot).
  const FunctionPtr& main_fn = optimized.main();
  TNP_CHECK(main_fn->checked_type().defined());
  Lowerer lowerer(compiled.get(), &external_index);
  std::unordered_map<const Expr*, int> scope;
  for (const auto& param : main_fn->params()) {
    scope[param.get()] = lowerer.next_slot;
    compiled->input_slots[param->name()] = lowerer.next_slot;
    ++lowerer.next_slot;
  }
  compiled->output_slot = lowerer.LowerBody(main_fn->body(), std::move(scope), -1);
  compiled->num_slots = lowerer.next_slot;

  const Type& out_type = main_fn->body()->checked_type();
  compiled->num_outputs = out_type.IsTuple() ? static_cast<int>(out_type.AsTuple().size()) : 1;

  // Graph-input types live in the memory plan, where BindInstructions (here
  // and in the artifact loader) reads them and PlanMemory keeps them.
  compiled->memory_plan.slots.resize(static_cast<std::size_t>(compiled->num_slots));
  for (const auto& param : main_fn->params()) {
    if (!param->checked_type().IsTensor()) continue;
    compiled->memory_plan.slots[static_cast<std::size_t>(
        compiled->input_slots.at(param->name()))].type = param->checked_type().AsTensor();
  }
  BindInstructions(*compiled);
  compiled->memory_plan = PlanMemory(*compiled);

  compiled->tuning_fingerprint = tune::ActiveTuningFingerprint();
  if (options.prepack_weights) PrepackConstantWeights(compiled.get());

  if (build_scope.armed()) {
    build_scope.AddArg(support::TraceArg(
        "instructions", static_cast<std::int64_t>(compiled->instructions.size())));
    build_scope.AddArg(support::TraceArg(
        "externals", static_cast<std::int64_t>(compiled->externals.size())));
    build_scope.AddArg(support::TraceArg("arena_bytes", compiled->memory_plan.arena_bytes));
  }
  return compiled;
}

std::vector<tune::Workload> CollectGemmWorkloads(const CompiledModule& compiled) {
  std::vector<tune::Workload> workloads;
  std::unordered_map<std::string, bool> seen;
  // The sweep never mutates through `inst` here; the non-const parameter is
  // only so PrepackConstantWeights can share it.
  ForEachPrepackSite(const_cast<CompiledModule*>(&compiled),
                     [&](Instruction&, const PrepackSite& site) {
                       if (seen.emplace(site.workload.Key(), true).second) {
                         workloads.push_back(site.workload);
                       }
                     });
  return workloads;
}

void BindInstructions(CompiledModule& compiled) {
  std::vector<Type> slot_types(static_cast<std::size_t>(compiled.num_slots));
  for (std::size_t s = 0; s < compiled.memory_plan.slots.size(); ++s) {
    const TensorType& type = compiled.memory_plan.slots[s].type;
    // Slots the plan holds no type for (tuples, external outputs) keep rank 0.
    if (type.shape.rank() > 0) slot_types[s] = Type::Tensor(type.shape, type.dtype);
  }
  for (Instruction& inst : compiled.instructions) {
    if (inst.kind == Instruction::Kind::kCallOp) {
      std::vector<Type> arg_types;
      for (const int slot : inst.input_slots) {
        arg_types.push_back(slot_types[static_cast<std::size_t>(slot)]);
      }
      inst.call = BindOp(inst.op_name, inst.attrs, arg_types, inst.out_type);
      inst.call.packed_weights = inst.packed_weights.get();
    }
    slot_types[static_cast<std::size_t>(inst.output_slot)] = inst.out_type;
  }
}

GraphExecutor::GraphExecutor(CompiledModulePtr compiled)
    : compiled_(std::move(compiled)), arena_("relay/executor") {
  TNP_CHECK(compiled_ != nullptr);
  const MemoryPlan& plan = compiled_->memory_plan;
  const std::size_t num_slots = static_cast<std::size_t>(compiled_->num_slots);
  TNP_CHECK_EQ(plan.slots.size(), num_slots) << "compiled module has no memory plan";
  arena_.Reserve(static_cast<std::size_t>(plan.arena_bytes));
  tensors_.resize(num_slots);
  for (const auto& external : compiled_->externals) sessions_.push_back(external->CreateSession());

  // Resolve where every slot's value lives — one tensor, or a tuple's
  // tensors — so tuples and projections cost nothing at run time.
  std::vector<std::vector<const NDArray*>> value(num_slots);
  for (const auto& [name, slot] : compiled_->input_slots) {
    value[static_cast<std::size_t>(slot)] = {&tensors_[static_cast<std::size_t>(slot)]};
  }
  for (const Instruction& inst : compiled_->instructions) {
    const std::size_t out = static_cast<std::size_t>(inst.output_slot);
    std::vector<const NDArray*> operands;
    for (const int slot : inst.input_slots) {
      const auto& field = value[static_cast<std::size_t>(slot)];
      operands.insert(operands.end(), field.begin(), field.end());
    }
    Step step{&inst, args_.size(), operands.size(), nullptr, nullptr};
    switch (inst.kind) {
      case Instruction::Kind::kConstant:
        tensors_[out] = inst.constant;
        value[out] = {&tensors_[out]};
        continue;
      case Instruction::Kind::kTuple:
        for (const int slot : inst.input_slots) {
          TNP_CHECK_EQ(value[static_cast<std::size_t>(slot)].size(), 1u)
              << "nested tuples are not supported by the executor";
        }
        value[out] = std::move(operands);
        continue;
      case Instruction::Kind::kTupleGetItem:
        value[out] = {value[static_cast<std::size_t>(inst.input_slots.at(0))].at(
            static_cast<std::size_t>(inst.tuple_index))};
        continue;
      case Instruction::Kind::kCallOp: {
        const SlotPlan& slot = plan.slots[out];
        TNP_CHECK(slot.kind == SlotPlan::Kind::kArena || slot.kind == SlotPlan::Kind::kAlias)
            << "kCallOp slot " << out << " has no planned storage";
        const std::size_t bytes = static_cast<std::size_t>(slot.bytes);
        tensors_[out] =
            NDArray::ViewOver(arena_.Data(static_cast<std::size_t>(slot.offset), bytes), bytes,
                              slot.type.shape, slot.type.dtype, arena_.handle());
        value[out] = {&tensors_[out]};
        step.out = &tensors_[out];
        break;
      }
      case Instruction::Kind::kCallExternal: {
        step.session = sessions_[static_cast<std::size_t>(inst.external_index)].get();
        const auto outputs = step.session->outputs();
        value[out].assign(outputs.begin(), outputs.end());
        break;
      }
    }
    args_.insert(args_.end(), operands.begin(), operands.end());
    steps_.push_back(step);
  }
  outputs_ = value[static_cast<std::size_t>(compiled_->output_slot)];
}

void GraphExecutor::SetInput(const std::string& name, NDArray value) {
  const auto it = compiled_->input_slots.find(name);
  if (it == compiled_->input_slots.end()) {
    TNP_THROW(kInvalidArgument) << "no graph input named '" << name << "'";
  }
  tensors_[static_cast<std::size_t>(it->second)] = std::move(value);
}

void GraphExecutor::Run() {
  TNP_TRACE_SCOPE("relay.execute", "GraphExecutor::Run");
  for (const Step& step : steps_) {
    const std::span<const NDArray* const> args(args_.data() + step.first_arg, step.num_args);
    if (step.session != nullptr) {
      compiled_->externals[static_cast<std::size_t>(step.inst->external_index)]->Run(
          *step.session, args);
    } else {
      kernels::Invoke(step.inst->call, args, *step.out);
    }
  }
}

NDArray GraphExecutor::GetOutput(int index) const {
  TNP_CHECK(index >= 0 && index < NumOutputs()) << "output index out of range";
  return *outputs_[static_cast<std::size_t>(index)];
}

}  // namespace relay
}  // namespace tnp
