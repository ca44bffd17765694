#include "relay/interpreter.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "relay/op.h"

namespace tnp {
namespace relay {

namespace {

using kernels::BinaryOp;
using kernels::KernelId;

QuantParams QP(const Attrs& attrs, const char* scale_key, const char* zp_key) {
  return QuantParams(static_cast<float>(attrs.RequireDouble(scale_key)),
                     static_cast<std::int32_t>(attrs.RequireInt(zp_key)));
}

std::vector<int> ToIntVector(const std::vector<std::int64_t>& v) {
  return std::vector<int>(v.begin(), v.end());
}

kernels::Conv2DParams ConvParams(const Attrs& attrs) {
  kernels::Conv2DParams p;
  const auto strides = attrs.GetInts("strides", {1, 1});
  const auto padding = attrs.GetInts("padding", {0, 0});
  const auto dilation = attrs.GetInts("dilation", {1, 1});
  p.stride_h = strides[0];
  p.stride_w = strides[1];
  p.pad_h = padding[0];
  p.pad_w = padding[1];
  p.dilation_h = dilation[0];
  p.dilation_w = dilation[1];
  p.groups = attrs.GetInt("groups", 1);
  return p;
}

kernels::Pool2DParams PoolParams(const Attrs& attrs) {
  kernels::Pool2DParams p;
  const auto pool_size = attrs.RequireInts("pool_size");
  const auto strides = attrs.GetInts("strides", pool_size);
  const auto padding = attrs.GetInts("padding", {0, 0});
  p.kernel_h = pool_size[0];
  p.kernel_w = pool_size[1];
  p.stride_h = strides[0];
  p.stride_w = strides[1];
  p.pad_h = padding[0];
  p.pad_w = padding[1];
  p.count_include_pad = attrs.GetInt("count_include_pad", 0) != 0;
  return p;
}

struct OpKernel {
  KernelId id;
  BinaryOp binary = BinaryOp::kAdd;
};

/// Relay op -> kernel. Ops whose dtype picks the kernel map to the float32
/// variant here; BindOp switches to the int8 one.
const std::unordered_map<std::string, OpKernel>& OpKernels() {
  static const std::unordered_map<std::string, OpKernel> kTable = {
      {"nn.conv2d", {KernelId::kConv2dF32}},     {"qnn.conv2d", {KernelId::kConv2dS8}},
      {"nn.dense", {KernelId::kDenseF32}},       {"qnn.dense", {KernelId::kDenseS8}},
      {"nn.bias_add", {KernelId::kBiasAdd}},     {"nn.relu", {KernelId::kReluF32}},
      {"qnn.relu", {KernelId::kReluS8}},         {"nn.leaky_relu", {KernelId::kLeakyRelu}},
      {"sigmoid", {KernelId::kSigmoid}},         {"tanh", {KernelId::kTanh}},
      {"exp", {KernelId::kExp}},                 {"sqrt", {KernelId::kSqrt}},
      {"clip", {KernelId::kClip}},               {"qnn.add", {KernelId::kQAdd}},
      {"add", {KernelId::kBinary, BinaryOp::kAdd}},
      {"subtract", {KernelId::kBinary, BinaryOp::kSub}},
      {"multiply", {KernelId::kBinary, BinaryOp::kMul}},
      {"divide", {KernelId::kBinary, BinaryOp::kDiv}},
      {"maximum", {KernelId::kBinary, BinaryOp::kMax}},
      {"minimum", {KernelId::kBinary, BinaryOp::kMin}},
      {"qnn.mul", {KernelId::kQMul}},            {"nn.max_pool2d", {KernelId::kMaxPoolF32}},
      {"nn.avg_pool2d", {KernelId::kAvgPoolF32}},
      {"nn.global_avg_pool2d", {KernelId::kGlobalAvgPoolF32}},
      {"nn.batch_norm", {KernelId::kBatchNorm}}, {"nn.softmax", {KernelId::kSoftmax}},
      {"nn.dropout", {KernelId::kCopy}},         {"nn.batch_flatten", {KernelId::kCopy}},
      {"reshape", {KernelId::kCopy}},            {"transpose", {KernelId::kTranspose}},
      {"concatenate", {KernelId::kConcat}},      {"qnn.concatenate", {KernelId::kQConcat}},
      {"nn.pad", {KernelId::kPad}},              {"nn.upsampling", {KernelId::kUpsampling}},
      {"strided_slice", {KernelId::kStridedSlice}}, {"mean", {KernelId::kMean}},
      {"cast", {KernelId::kCast}},               {"qnn.quantize", {KernelId::kQuantize}},
      {"qnn.dequantize", {KernelId::kDequantize}},
      {"qnn.requantize", {KernelId::kRequantize}},
  };
  return kTable;
}

}  // namespace

Type Value::GetType() const {
  if (is_tuple_) {
    std::vector<Type> field_types;
    field_types.reserve(fields_.size());
    for (const auto& field : fields_) field_types.push_back(field.GetType());
    return Type::Tuple(std::move(field_types));
  }
  TNP_CHECK(tensor_.defined());
  return Type::Tensor(tensor_.shape(), tensor_.dtype());
}

kernels::KernelCall BindOp(const std::string& op, const Attrs& attrs,
                           const std::vector<Type>& arg_types, const Type& out_type) {
  const auto it = OpKernels().find(op);
  if (it == OpKernels().end()) {
    TNP_THROW(kCompileError) << "no kernel for operator '" << op << "'";
  }
  kernels::KernelCall call;
  call.id = it->second.id;
  call.binary = it->second.binary;
  const bool int8 = out_type.IsTensor() && out_type.AsTensor().dtype == DType::kInt8;
  switch (call.id) {
    case KernelId::kConv2dF32:
    case KernelId::kConv2dS8:
      call.conv = ConvParams(attrs);
      break;
    case KernelId::kReluF32:
      if (int8) call.id = KernelId::kReluS8;  // relu in int8 form clamps at 0
      break;
    case KernelId::kReluS8:
      call.in_q.zero_point = static_cast<std::int32_t>(attrs.RequireInt("zero_point"));
      break;
    case KernelId::kMaxPoolF32:
      call.pool = PoolParams(attrs);
      if (int8) call.id = KernelId::kMaxPoolS8;
      break;
    case KernelId::kAvgPoolF32:
      call.pool = PoolParams(attrs);
      if (int8) call.id = KernelId::kAvgPoolS8;
      break;
    case KernelId::kGlobalAvgPoolF32:
      if (int8) call.id = KernelId::kGlobalAvgPoolS8;
      break;
    case KernelId::kBiasAdd:
      call.axis = static_cast<int>(attrs.GetInt("axis", 1));
      break;
    case KernelId::kLeakyRelu:
      call.alpha = static_cast<float>(attrs.GetDouble("alpha", 0.01));
      break;
    case KernelId::kClip:
      call.lo = static_cast<float>(attrs.RequireDouble("a_min"));
      call.hi = static_cast<float>(attrs.RequireDouble("a_max"));
      break;
    case KernelId::kBatchNorm:
      call.epsilon = static_cast<float>(attrs.GetDouble("epsilon", 1e-5));
      break;
    case KernelId::kSoftmax:
      call.axis = static_cast<int>(attrs.GetInt("axis", -1));
      break;
    case KernelId::kTranspose:
      call.axes = ToIntVector(attrs.RequireInts("axes"));
      break;
    case KernelId::kMean:
      call.axes = ToIntVector(attrs.RequireInts("axis"));
      break;
    case KernelId::kConcat:
      call.axis = static_cast<int>(attrs.GetInt("axis", 0));
      break;
    case KernelId::kQConcat: {
      call.axis = static_cast<int>(attrs.GetInt("axis", 0));
      call.out_q = QP(attrs, "output_scale", "output_zero_point");
      const auto scales = attrs.GetDoubles("input_scales", {});
      const auto zps = attrs.GetInts("input_zero_points", {});
      TNP_CHECK_EQ(scales.size(), zps.size());
      for (std::size_t i = 0; i < scales.size(); ++i) {
        call.input_qs.emplace_back(static_cast<float>(scales[i]),
                                   static_cast<std::int32_t>(zps[i]));
      }
      break;
    }
    case KernelId::kPad:
      call.begin = attrs.RequireInts("pad_before");
      call.end = attrs.RequireInts("pad_after");
      call.pad_value = attrs.GetDouble("pad_value", 0.0);
      break;
    case KernelId::kUpsampling:
      call.scale_h = attrs.GetInt("scale_h", 2);
      call.scale_w = attrs.GetInt("scale_w", 2);
      break;
    case KernelId::kStridedSlice: {
      call.begin = attrs.RequireInts("begin");
      call.end = attrs.RequireInts("end");
      call.strides =
          attrs.GetInts("strides", std::vector<std::int64_t>(call.begin.size(), 1));
      // Normalize negative / clamped indices the same way type inference does.
      TNP_CHECK(!arg_types.empty() && arg_types[0].IsTensor())
          << "strided_slice: input type unknown at bind time";
      const Shape& in = arg_types[0].AsTensor().shape;
      TNP_CHECK_EQ(static_cast<int>(call.end.size()), static_cast<int>(call.begin.size()));
      for (std::size_t i = 0; i < call.begin.size() && static_cast<int>(i) < in.rank(); ++i) {
        const std::int64_t extent = in[static_cast<int>(i)];
        if (call.begin[i] < 0) call.begin[i] += extent;
        if (call.end[i] < 0) call.end[i] += extent;
        call.end[i] = std::min(call.end[i], extent);
      }
      break;
    }
    case KernelId::kQuantize:
      call.out_q = QP(attrs, "output_scale", "output_zero_point");
      break;
    case KernelId::kDequantize:
      call.in_q = QP(attrs, "input_scale", "input_zero_point");
      break;
    case KernelId::kRequantize:
      call.in_q = QP(attrs, "input_scale", "input_zero_point");
      call.out_q = QP(attrs, "output_scale", "output_zero_point");
      break;
    case KernelId::kQAdd:
    case KernelId::kQMul:
      call.in_q = QP(attrs, "lhs_scale", "lhs_zero_point");
      call.rhs_q = QP(attrs, "rhs_scale", "rhs_zero_point");
      call.out_q = QP(attrs, "output_scale", "output_zero_point");
      break;
    default:
      break;
  }
  if (call.id == KernelId::kConv2dS8 || call.id == KernelId::kDenseS8) {
    call.in_q = QP(attrs, "input_scale", "input_zero_point");
    call.rhs_q = QP(attrs, "weight_scale", "weight_zero_point");
    call.out_q = QP(attrs, "output_scale", "output_zero_point");
  }
  return call;
}

Value EvalOpCall(const std::string& op, const Attrs& attrs, const Call& call,
                 const std::vector<Value>& args) {
  std::vector<Type> arg_types;
  std::vector<const NDArray*> inputs;
  for (const auto& arg : args) {
    arg_types.push_back(arg.GetType());
    if (!arg.is_tuple()) {
      inputs.push_back(&arg.AsTensor());
      continue;
    }
    for (const auto& field : arg.AsTuple()) inputs.push_back(&field.AsTensor());
  }
  // Output type drives allocation.
  const Type out_type = InferCallType(call, arg_types);
  NDArray out = NDArray::Empty(out_type.AsTensor().shape, out_type.AsTensor().dtype);
  kernels::Invoke(BindOp(op, attrs, arg_types, out_type), inputs, out);
  return out;
}

Value EvalExpr(const ExprPtr& expr, const Environment& env) {
  std::unordered_map<const Expr*, Value> memo;

  const std::function<Value(const ExprPtr&)> eval = [&](const ExprPtr& node) -> Value {
    const auto it = memo.find(node.get());
    if (it != memo.end()) return it->second;

    Value result;
    switch (node->kind()) {
      case ExprKind::kVar: {
        const auto env_it = env.find(node.get());
        if (env_it == env.end()) {
          TNP_THROW(kRuntimeError) << "unbound variable '"
                                   << std::static_pointer_cast<Var>(node)->name() << "'";
        }
        result = env_it->second;
        break;
      }
      case ExprKind::kConstant:
        result = std::static_pointer_cast<Constant>(node)->data();
        break;
      case ExprKind::kTuple: {
        const auto tuple = std::static_pointer_cast<Tuple>(node);
        std::vector<Value> fields;
        fields.reserve(tuple->fields().size());
        for (const auto& field : tuple->fields()) fields.push_back(eval(field));
        result = Value(std::move(fields));
        break;
      }
      case ExprKind::kTupleGetItem: {
        const auto get = std::static_pointer_cast<TupleGetItem>(node);
        const Value tuple_value = eval(get->tuple());
        const auto& fields = tuple_value.AsTuple();
        TNP_CHECK(get->index() >= 0 && get->index() < static_cast<int>(fields.size()));
        result = fields[static_cast<std::size_t>(get->index())];
        break;
      }
      case ExprKind::kCall: {
        const auto call = std::static_pointer_cast<Call>(node);
        std::vector<Value> arg_values;
        arg_values.reserve(call->args().size());
        for (const auto& arg : call->args()) arg_values.push_back(eval(arg));
        switch (call->callee_kind()) {
          case CalleeKind::kOp:
            result = EvalOpCall(call->op_name(), call->attrs(), *call, arg_values);
            break;
          case CalleeKind::kFunction: {
            const FunctionPtr& fn = call->fn();
            TNP_CHECK_EQ(fn->params().size(), arg_values.size());
            Environment inner;
            for (std::size_t i = 0; i < arg_values.size(); ++i) {
              inner[fn->params()[i].get()] = arg_values[i];
            }
            result = EvalExpr(fn->body(), inner);
            break;
          }
          case CalleeKind::kGlobal:
            TNP_THROW(kRuntimeError)
                << "interpreter cannot evaluate global call '@" << call->op_name()
                << "' without a module (use the graph executor)";
        }
        break;
      }
      case ExprKind::kFunction:
        TNP_THROW(kRuntimeError) << "cannot evaluate a bare function to a value";
    }
    memo[node.get()] = result;
    return result;
  };

  return eval(expr);
}

}  // namespace relay
}  // namespace tnp
