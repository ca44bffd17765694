#include "kernels/call.h"

#include <cstring>

#include "kernels/conv.h"
#include "kernels/dense.h"
#include "kernels/pool.h"
#include "kernels/quantize.h"

namespace tnp {
namespace kernels {

void Invoke(const KernelCall& call, std::span<const NDArray* const> inputs, NDArray& out) {
  static const NDArray kNoBias;
  const auto in = [&](std::size_t i) -> const NDArray& { return *inputs[i]; };
  const NDArray& bias = inputs.size() > 2 ? in(2) : kNoBias;

  switch (call.id) {
    case KernelId::kConv2dF32:
      return Conv2DF32(in(0), in(1), bias, out, call.conv, call.packed_weights);
    case KernelId::kConv2dS8:
      return QConv2DS8(in(0), in(1), bias, out, call.conv, call.in_q, call.rhs_q, call.out_q,
                       call.packed_weights);
    case KernelId::kDenseF32:
      return DenseF32(in(0), in(1), bias, out, call.packed_weights);
    case KernelId::kDenseS8:
      return QDenseS8(in(0), in(1), bias, out, call.in_q, call.rhs_q, call.out_q,
                      call.packed_weights);
    case KernelId::kBiasAdd: return BiasAddF32(in(0), in(1), out, call.axis);
    case KernelId::kReluF32: return ReluF32(in(0), out);
    case KernelId::kReluS8: return ReluS8(in(0), out, call.in_q.zero_point);
    case KernelId::kLeakyRelu: return LeakyReluF32(in(0), out, call.alpha);
    case KernelId::kSigmoid: return SigmoidF32(in(0), out);
    case KernelId::kTanh: return TanhF32(in(0), out);
    case KernelId::kExp: return ExpF32(in(0), out);
    case KernelId::kSqrt: return SqrtF32(in(0), out);
    case KernelId::kClip: return ClipF32(in(0), out, call.lo, call.hi);
    case KernelId::kBinary: return BroadcastBinaryF32(call.binary, in(0), in(1), out);
    case KernelId::kQAdd: return QAddS8(in(0), in(1), out, call.in_q, call.rhs_q, call.out_q);
    case KernelId::kQMul: return QMulS8(in(0), in(1), out, call.in_q, call.rhs_q, call.out_q);
    case KernelId::kMaxPoolF32: return MaxPool2DF32(in(0), out, call.pool);
    case KernelId::kMaxPoolS8: return MaxPool2DS8(in(0), out, call.pool);
    case KernelId::kAvgPoolF32: return AvgPool2DF32(in(0), out, call.pool);
    case KernelId::kAvgPoolS8: return AvgPool2DS8(in(0), out, call.pool);
    case KernelId::kGlobalAvgPoolF32: return GlobalAvgPool2DF32(in(0), out);
    case KernelId::kGlobalAvgPoolS8: return GlobalAvgPool2DS8(in(0), out);
    case KernelId::kBatchNorm:
      return BatchNormF32(in(0), in(1), in(2), in(3), in(4), out, call.epsilon);
    case KernelId::kSoftmax: return SoftmaxF32(in(0), out, call.axis);
    case KernelId::kCopy: {
      // Both layouts are contiguous: a byte copy, skipped when the memory
      // plan placed the output on the input's bytes.
      const NDArray& src = in(0);
      TNP_CHECK_EQ(src.SizeBytes(), out.SizeBytes());
      if (out.RawData() != src.RawData()) {
        std::memcpy(out.RawData(), src.RawData(), src.SizeBytes());
      }
      out.set_quant(src.quant());
      return;
    }
    case KernelId::kTranspose: return Transpose(in(0), out, call.axes);
    case KernelId::kConcat:
    case KernelId::kQConcat: {
      std::vector<NDArray> tensors;
      tensors.reserve(inputs.size());
      for (const NDArray* input : inputs) tensors.push_back(*input);
      if (call.id == KernelId::kConcat) return Concat(tensors, out, call.axis);
      return QConcatS8(tensors, call.input_qs, out, call.out_q, call.axis);
    }
    case KernelId::kPad:
      return PadConstant(in(0), out, call.begin, call.end, call.pad_value);
    case KernelId::kUpsampling:
      return UpsamplingNearestF32(in(0), out, call.scale_h, call.scale_w);
    case KernelId::kStridedSlice:
      return StridedSlice(in(0), out, call.begin, call.end, call.strides);
    case KernelId::kMean: return MeanF32(in(0), out, call.axes);
    case KernelId::kCast: return Cast(in(0), out);
    case KernelId::kQuantize: return QuantizeF32ToS8(in(0), out, call.out_q);
    case KernelId::kDequantize: return DequantizeS8ToF32(in(0), out, call.in_q);
    case KernelId::kRequantize: return RequantizeS8(in(0), out, call.in_q, call.out_q);
  }
  TNP_THROW(kRuntimeError) << "kernels::Invoke: unknown kernel id "
                           << static_cast<int>(call.id);
}

}  // namespace kernels
}  // namespace tnp
