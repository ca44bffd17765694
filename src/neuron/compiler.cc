#include "neuron/compiler.h"

#include <algorithm>
#include <limits>

#include "kernels/conv.h"
#include "support/memplan.h"
#include "support/trace.h"
#include "tune/db.h"

namespace tnp {
namespace neuron {

namespace {

/// Liveness + greedy best-fit storage assignment over the (topologically
/// ordered, validated) operation list. Model inputs stay caller-bound,
/// constants reference the captured weights; every temporary gets an arena
/// range whose storage is recycled after its last reading operation.
NeuronMemoryPlan PlanOperandStorage(const NeuronModel& model) {
  const std::size_t n_operands = model.operands().size();
  const int n_ops = static_cast<int>(model.operations().size());

  std::vector<int> last_use(n_operands, -1);
  for (int i = 0; i < n_ops; ++i) {
    for (const OperandId id : model.operations()[static_cast<std::size_t>(i)].inputs) {
      last_use[static_cast<std::size_t>(id)] = i;
    }
  }
  for (const OperandId id : model.model_outputs()) {
    last_use[static_cast<std::size_t>(id)] = std::numeric_limits<int>::max();
  }

  NeuronMemoryPlan plan;
  plan.operands.resize(n_operands);
  for (std::size_t id = 0; id < n_operands; ++id) {
    const Operand& operand = model.operands()[id];
    plan.operands[id].bytes = operand.SizeBytes();
    if (operand.kind == OperandKind::kInput) {
      plan.operands[id].kind = OperandStorage::Kind::kExternal;
    } else if (operand.kind == OperandKind::kConstant) {
      plan.operands[id].kind = OperandStorage::Kind::kConstant;
    }
  }

  support::LinearMemoryPlanner planner;
  for (int i = 0; i < n_ops; ++i) {
    planner.BeginStep(i);
    for (const OperandId id : model.operations()[static_cast<std::size_t>(i)].outputs) {
      const Operand& operand = model.operand(id);
      if (operand.kind != OperandKind::kTemporary) continue;
      const int lu = std::max(last_use[static_cast<std::size_t>(id)], i);
      const int region = planner.Allocate(operand.SizeBytes(), lu);
      plan.operands[static_cast<std::size_t>(id)].kind = OperandStorage::Kind::kArena;
      plan.operands[static_cast<std::size_t>(id)].offset = planner.region(region).offset;
    }
  }
  plan.arena_bytes = planner.arena_bytes();
  plan.planned_bytes = planner.total_bytes();
  return plan;
}

/// Pack constant conv / fully-connected weights into GEMM panel layout once
/// at compile time. Keyed by the constant's data pointer plus the chosen
/// GEMM config, so operations sharing one weight operand (and tuned config)
/// share one pack. When a tuning DB is active (tune::SetActiveTuningDb) the
/// per-workload winning config is consulted; misses fall back to defaults.
void PrepackWeights(NeuronPackage* package) {
  const NeuronModel& model = package->model;
  package->op_packed_weights.resize(model.operations().size());
  for (std::size_t i = 0; i < model.operations().size(); ++i) {
    const Operation& op = model.operations()[i];
    const bool conv = op.type == NeuronOpType::kConv2d;
    const bool fc = op.type == NeuronOpType::kFullyConnected;
    if ((!conv && !fc) || op.inputs.size() < 2 || op.outputs.empty()) continue;
    const Operand& weight = model.operand(op.inputs[1]);
    const Operand& out = model.operand(op.outputs[0]);
    if (weight.kind != OperandKind::kConstant || !weight.data.defined()) continue;
    const bool int8 = weight.dtype == DType::kInt8;
    if (!int8 && weight.dtype != DType::kFloat32) continue;

    tune::Workload workload;
    workload.dtype = weight.dtype;
    std::int64_t groups = 1;
    if (conv) {
      if (weight.shape.rank() != 4 || out.shape.rank() != 4) continue;
      groups = op.attrs.groups;
      if (groups <= 0 || weight.shape[0] % groups != 0) continue;
      if (!kernels::Conv2DUsesPackedWeights(weight.shape[0] / groups)) continue;
      workload.op = "conv2d";
      workload.m = weight.shape[0] / groups;
      workload.k = weight.shape[1] * weight.shape[2] * weight.shape[3];
      workload.n = out.shape[2] * out.shape[3];
    } else {
      if (weight.shape.rank() != 2 || out.shape.rank() != 2) continue;
      workload.op = "dense";
      workload.m = out.shape[0];
      workload.k = weight.shape[1];
      workload.n = weight.shape[0];
    }
    if (workload.m <= 0 || workload.k <= 0 || workload.n <= 0) continue;
    const kernels::GemmConfig config = tune::TunedConfigFor(workload);

    const NDArray& data = weight.data;
    const void* identity = int8 ? static_cast<const void*>(data.Data<std::int8_t>())
                                : static_cast<const void*>(data.Data<float>());
    std::string key = (conv ? "conv/" : "fc/");
    key += int8 ? "s8/" : "f32/";
    key += std::to_string(groups) + "/" +
           std::to_string(reinterpret_cast<std::uintptr_t>(identity)) + "/" +
           config.ToString();
    package->op_packed_weights[i] = package->packed_weights.GetOrPack(key, [&] {
      if (conv) {
        return int8 ? kernels::PackConvWeightsS8(data, groups, config)
                    : kernels::PackConvWeightsF32(data, groups, config);
      }
      return int8 ? kernels::PackDenseWeightsS8(data, config)
                  : kernels::PackDenseWeightsF32(data, config);
    });
  }
}

}  // namespace

void BindOperations(NeuronPackage& package) {
  using kernels::BinaryOp;
  using kernels::KernelId;
  const NeuronModel& model = package.model;
  package.calls.clear();
  package.calls.reserve(model.operations().size());
  for (std::size_t i = 0; i < model.operations().size(); ++i) {
    const Operation& op = model.operations()[i];
    const NeuronOpAttrs& attrs = op.attrs;
    const Operand& out = model.operand(op.outputs.at(0));
    const bool int8 = out.dtype == DType::kInt8;
    kernels::KernelCall call;
    if (!op.inputs.empty()) call.in_q = model.operand(op.inputs[0]).quant;
    if (op.inputs.size() > 1) call.rhs_q = model.operand(op.inputs[1]).quant;
    call.out_q = out.quant;
    call.axis = attrs.axis;
    TNP_CHECK(attrs.strides.size() == 2 && attrs.padding.size() == 2 &&
              attrs.dilation.size() == 2 && attrs.pool_size.size() == 2)
        << NeuronOpTypeName(op.type) << ": window attrs need two entries each";
    call.conv = {attrs.strides[0],  attrs.strides[1],  attrs.padding[0], attrs.padding[1],
                 attrs.dilation[0], attrs.dilation[1], attrs.groups};
    call.pool = {attrs.pool_size[0], attrs.pool_size[1], attrs.strides[0], attrs.strides[1],
                 attrs.padding[0],   attrs.padding[1],   attrs.count_include_pad};
    if (i < package.op_packed_weights.size()) {
      call.packed_weights = package.op_packed_weights[i].get();
    }
    const auto pick = [&](KernelId f32, KernelId s8) { call.id = int8 ? s8 : f32; };
    const auto binary = [&](BinaryOp kind) {
      call.id = KernelId::kBinary;
      call.binary = kind;
    };
    switch (op.type) {
      case NeuronOpType::kConv2d: pick(KernelId::kConv2dF32, KernelId::kConv2dS8); break;
      case NeuronOpType::kFullyConnected: pick(KernelId::kDenseF32, KernelId::kDenseS8); break;
      case NeuronOpType::kAdd:
        if (int8) call.id = KernelId::kQAdd; else binary(BinaryOp::kAdd);
        break;
      case NeuronOpType::kMul:
        if (int8) call.id = KernelId::kQMul; else binary(BinaryOp::kMul);
        break;
      case NeuronOpType::kSub: binary(BinaryOp::kSub); break;
      case NeuronOpType::kDiv: binary(BinaryOp::kDiv); break;
      case NeuronOpType::kMax: binary(BinaryOp::kMax); break;
      case NeuronOpType::kMin: binary(BinaryOp::kMin); break;
      case NeuronOpType::kRelu:
        pick(KernelId::kReluF32, KernelId::kReluS8);
        if (!call.in_q.valid) call.in_q.zero_point = 0;
        break;
      case NeuronOpType::kClip:
        call.id = KernelId::kClip;
        call.lo = attrs.clip_min;
        call.hi = attrs.clip_max;
        break;
      case NeuronOpType::kMaxPool2d: pick(KernelId::kMaxPoolF32, KernelId::kMaxPoolS8); break;
      case NeuronOpType::kAvgPool2d: pick(KernelId::kAvgPoolF32, KernelId::kAvgPoolS8); break;
      case NeuronOpType::kGlobalAvgPool2d:
        pick(KernelId::kGlobalAvgPoolF32, KernelId::kGlobalAvgPoolS8);
        break;
      case NeuronOpType::kSoftmax: call.id = KernelId::kSoftmax; break;
      case NeuronOpType::kConcat:
        pick(KernelId::kConcat, KernelId::kQConcat);
        for (const OperandId id : op.inputs) call.input_qs.push_back(model.operand(id).quant);
        break;
      case NeuronOpType::kReshape: call.id = KernelId::kCopy; break;
      case NeuronOpType::kBatchNorm:
        call.id = KernelId::kBatchNorm;
        call.epsilon = attrs.epsilon;
        break;
      case NeuronOpType::kPad:
        call.id = KernelId::kPad;
        call.begin = attrs.pad_before;
        call.end = attrs.pad_after;
        call.pad_value = attrs.pad_value;
        break;
      case NeuronOpType::kQuantize: call.id = KernelId::kQuantize; break;
      case NeuronOpType::kDequantize: call.id = KernelId::kDequantize; break;
      case NeuronOpType::kRequantize: call.id = KernelId::kRequantize; break;
    }
    package.calls.push_back(std::move(call));
  }
}

int NeuronPackage::NumOpsOn(sim::DeviceKind device) const {
  int count = 0;
  for (const sim::DeviceKind d : plan.placement) {
    if (d == device) ++count;
  }
  return count;
}

NeuronPackagePtr NeuronCompiler::Compile(NeuronModel model, const std::string& name) const {
  support::TraceScope scope;
  if (scope.armed()) {
    scope.Begin("neuron.compile", std::string("Compile:") + name,
                support::TraceArg("ops", static_cast<int>(model.operations().size())));
  }
  model.Validate();
  ExecutionPlan plan = PlanExecution(model, options_.target, *options_.testbed, options_.policy);
  if (scope.armed()) {
    int apu_ops = 0;
    for (const sim::DeviceKind d : plan.placement) {
      if (sim::ResourceOf(d) == sim::Resource::kApu) ++apu_ops;
    }
    scope.AddArg(support::TraceArg("apu_ops", apu_ops));
    scope.AddArg(support::TraceArg("estimated_us", plan.estimated_us));
  }
  auto package = std::make_shared<NeuronPackage>();
  package->name = name;
  package->model = std::move(model);
  package->plan = std::move(plan);
  package->memory = PlanOperandStorage(package->model);
  package->options = options_;
  package->tuning_fingerprint = tune::ActiveTuningFingerprint();
  if (options_.prepack_weights) PrepackWeights(package.get());
  BindOperations(*package);
  if (scope.armed()) {
    scope.AddArg(support::TraceArg("arena_bytes", package->memory.arena_bytes));
  }
  return package;
}

}  // namespace neuron
}  // namespace tnp
