// KernelCall — one operator bound to its kernel, decided once at build time.
//
// Both IRs lower onto this form: relay::BindOp maps a Relay op (name, attrs,
// types) and neuron::BindOperations maps a Neuron operation (type, attrs,
// operand quantization) to a KernelCall, and every execution path — the graph
// executor, the Neuron execution session and the reference interpreter —
// runs it through Invoke, the program's only kernel dispatcher. Params are
// typed and decoded once, so a steady-state call does no attribute lookup,
// no string comparison and no heap allocation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/common.h"
#include "kernels/elementwise.h"
#include "kernels/pack.h"
#include "tensor/ndarray.h"

namespace tnp {
namespace kernels {

/// One per kernel entry point; the dtype variants are separate ids so the
/// choice is made at bind time. kBinary is the float broadcast family
/// (`binary` picks the op); kCopy is the inference-time identity (reshape,
/// flatten, dropout).
enum class KernelId : std::uint8_t {
  kConv2dF32, kConv2dS8, kDenseF32, kDenseS8, kBiasAdd,
  kReluF32, kReluS8, kLeakyRelu, kSigmoid, kTanh, kExp, kSqrt, kClip,
  kBinary, kQAdd, kQMul,
  kMaxPoolF32, kMaxPoolS8, kAvgPoolF32, kAvgPoolS8, kGlobalAvgPoolF32, kGlobalAvgPoolS8,
  kBatchNorm, kSoftmax, kCopy, kTranspose, kConcat, kQConcat, kPad, kUpsampling,
  kStridedSlice, kMean, kCast, kQuantize, kDequantize, kRequantize,
};

/// An operator bound to one kernel with its params decoded. Immutable once
/// bound: compiled programs share their calls across executors and threads.
struct KernelCall {
  KernelId id = KernelId::kCopy;
  BinaryOp binary = BinaryOp::kAdd;
  Conv2DParams conv;
  Pool2DParams pool;
  /// Quantization of the first input, the second input (conv/dense weight,
  /// binary rhs) and the output; ReluS8 reads in_q.zero_point.
  QuantParams in_q, rhs_q, out_q;
  std::vector<QuantParams> input_qs;  ///< per-input quantization (QConcat)
  int axis = 0;
  float alpha = 0.0f;    ///< leaky relu slope
  float lo = 0.0f;       ///< clip bounds
  float hi = 0.0f;
  float epsilon = 1e-5f;
  double pad_value = 0.0;
  std::int64_t scale_h = 1, scale_w = 1;  ///< upsampling factors
  /// Slice begin/end/strides (normalized against the input extents), or the
  /// per-axis pad before/after in begin/end.
  std::vector<std::int64_t> begin, end, strides;
  std::vector<int> axes;  ///< transpose permutation / mean axes
  /// Build-time packed panels of the constant weight (conv/dense), owned by
  /// the program's packed-weights cache; null packs into scratch per call.
  const PackedMatrix* packed_weights = nullptr;
};

/// Run `call` on `inputs` (in operator argument order; concat takes one
/// pointer per field), writing `out`, which the caller has shaped to the
/// op's output type. `out` may alias inputs[0] for the element-local kernels
/// the memory planners run in place.
void Invoke(const KernelCall& call, std::span<const NDArray* const> inputs, NDArray& out);

}  // namespace kernels
}  // namespace tnp
