// Shared kernel parameter structs and shape arithmetic.
//
// Conventions (documented once here, relied on everywhere):
//  * Activations are NCHW. Convolution weights are OIHW (O = output
//    channels, I = input channels / groups). Depthwise convolution is
//    expressed as a grouped convolution with groups == input channels.
//  * All kernels write into a caller-allocated output NDArray whose shape
//    must match the kernel's inferred output shape.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/logging.h"
#include "tensor/shape.h"

namespace tnp {
namespace kernels {

struct Conv2DParams {
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;  ///< symmetric top/bottom padding
  std::int64_t pad_w = 0;  ///< symmetric left/right padding
  std::int64_t dilation_h = 1;
  std::int64_t dilation_w = 1;
  std::int64_t groups = 1;
};

struct Pool2DParams {
  std::int64_t kernel_h = 2;
  std::int64_t kernel_w = 2;
  std::int64_t stride_h = 2;
  std::int64_t stride_w = 2;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  /// When true, average pooling divides by the full kernel area even at
  /// padded borders (TFLite semantics); otherwise by the valid-element count.
  bool count_include_pad = false;
};

/// Output spatial extent of a conv/pool window along one axis.
inline std::int64_t ConvOutDim(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                               std::int64_t pad, std::int64_t dilation = 1) {
  const std::int64_t effective_kernel = dilation * (kernel - 1) + 1;
  const std::int64_t out = (in + 2 * pad - effective_kernel) / stride + 1;
  TNP_CHECK_GT(out, 0) << "conv/pool window larger than padded input (in=" << in
                       << " kernel=" << kernel << " stride=" << stride << " pad=" << pad << ")";
  return out;
}

/// True when `shape` has exactly the dims `dims` (no Shape is built).
inline bool ShapeIs(const Shape& shape, std::span<const std::int64_t> dims) {
  return std::ranges::equal(shape.dims(), dims);
}

/// Output dims of conv2d given NCHW input and OIHW weight shapes.
inline std::array<std::int64_t, 4> Conv2DOutDims(const Shape& input, const Shape& weight,
                                                 const Conv2DParams& p) {
  TNP_CHECK_EQ(input.rank(), 4);
  TNP_CHECK_EQ(weight.rank(), 4);
  TNP_CHECK_EQ(input[1] % p.groups, 0);
  TNP_CHECK_EQ(weight[1], input[1] / p.groups)
      << "weight input-channel dim mismatch (weight " << weight.ToString() << ", input "
      << input.ToString() << ", groups " << p.groups << ")";
  const std::int64_t out_h = ConvOutDim(input[2], weight[2], p.stride_h, p.pad_h, p.dilation_h);
  const std::int64_t out_w = ConvOutDim(input[3], weight[3], p.stride_w, p.pad_w, p.dilation_w);
  return {input[0], weight[0], out_h, out_w};
}

/// Output shape of conv2d given NCHW input and OIHW weight shapes.
inline Shape Conv2DOutShape(const Shape& input, const Shape& weight, const Conv2DParams& p) {
  const auto dims = Conv2DOutDims(input, weight, p);
  return Shape(std::vector<std::int64_t>(dims.begin(), dims.end()));
}

/// Output dims of pool2d given an NCHW input.
inline std::array<std::int64_t, 4> Pool2DOutDims(const Shape& input, const Pool2DParams& p) {
  TNP_CHECK_EQ(input.rank(), 4);
  const std::int64_t out_h = ConvOutDim(input[2], p.kernel_h, p.stride_h, p.pad_h);
  const std::int64_t out_w = ConvOutDim(input[3], p.kernel_w, p.stride_w, p.pad_w);
  return {input[0], input[1], out_h, out_w};
}

/// Output shape of pool2d given an NCHW input.
inline Shape Pool2DOutShape(const Shape& input, const Pool2DParams& p) {
  const auto dims = Pool2DOutDims(input, p);
  return Shape(std::vector<std::int64_t>(dims.begin(), dims.end()));
}

}  // namespace kernels
}  // namespace tnp
