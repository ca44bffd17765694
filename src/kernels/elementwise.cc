#include "kernels/elementwise.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "kernels/common.h"
#include "support/thread_pool.h"

namespace tnp {
namespace kernels {

namespace {

constexpr int kMaxBroadcastRank = 6;

template <typename Fn>
void UnaryImpl(const NDArray& input, NDArray& output, Fn fn) {
  TNP_CHECK(input.shape() == output.shape());
  const float* in = input.Data<float>();
  float* out = output.Data<float>();
  const std::int64_t n = input.NumElements();
  support::ParallelFor(0, n, [&](std::int64_t i) { out[i] = fn(in[i]); },
                       /*grain_size=*/4096);
}

using Dims = std::array<std::int64_t, kMaxBroadcastRank>;

// Pad `shape` with leading 1s to `rank` dims.
Dims PadShape(const Shape& shape, int rank) {
  Dims dims;
  dims.fill(1);
  const int offset = rank - shape.rank();
  for (int i = 0; i < shape.rank(); ++i) dims[static_cast<std::size_t>(offset + i)] = shape[i];
  return dims;
}

/// The broadcast result's dims in out[0, rank); returns rank. Throws
/// kInvalidArgument if incompatible.
int BroadcastDims(const Shape& lhs, const Shape& rhs, Dims& out) {
  const int rank = std::max(lhs.rank(), rhs.rank());
  if (rank > kMaxBroadcastRank) {
    TNP_THROW(kInvalidArgument) << "broadcast rank " << rank << " exceeds " << kMaxBroadcastRank;
  }
  const Dims a = PadShape(lhs, rank);
  const Dims b = PadShape(rhs, rank);
  for (std::size_t i = 0; i < static_cast<std::size_t>(rank); ++i) {
    if (a[i] != b[i] && a[i] != 1 && b[i] != 1) {
      TNP_THROW(kInvalidArgument) << "cannot broadcast " << lhs.ToString() << " with "
                                  << rhs.ToString();
    }
    out[i] = std::max(a[i], b[i]);
  }
  return rank;
}

}  // namespace

void ReluF32(const NDArray& input, NDArray& output) {
  UnaryImpl(input, output, [](float v) { return v > 0.0f ? v : 0.0f; });
}

void LeakyReluF32(const NDArray& input, NDArray& output, float alpha) {
  UnaryImpl(input, output, [alpha](float v) { return v > 0.0f ? v : alpha * v; });
}

void SigmoidF32(const NDArray& input, NDArray& output) {
  UnaryImpl(input, output, [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

void TanhF32(const NDArray& input, NDArray& output) {
  UnaryImpl(input, output, [](float v) { return std::tanh(v); });
}

void ClipF32(const NDArray& input, NDArray& output, float lo, float hi) {
  UnaryImpl(input, output, [lo, hi](float v) { return std::clamp(v, lo, hi); });
}

void ExpF32(const NDArray& input, NDArray& output) {
  UnaryImpl(input, output, [](float v) { return std::exp(v); });
}

void SqrtF32(const NDArray& input, NDArray& output) {
  UnaryImpl(input, output, [](float v) { return std::sqrt(v); });
}

void ReluS8(const NDArray& input, NDArray& output, std::int32_t zero_point) {
  TNP_CHECK(input.shape() == output.shape());
  const std::int8_t* in = input.Data<std::int8_t>();
  std::int8_t* out = output.Data<std::int8_t>();
  const std::int8_t floor_value = static_cast<std::int8_t>(std::clamp(zero_point, -128, 127));
  const std::int64_t n = input.NumElements();
  support::ParallelFor(0, n, [&](std::int64_t i) {
    out[i] = std::max(in[i], floor_value);
  }, /*grain_size=*/4096);
}

Shape BroadcastShape(const Shape& lhs, const Shape& rhs) {
  Dims dims;
  const int rank = BroadcastDims(lhs, rhs, dims);
  return Shape(std::vector<std::int64_t>(dims.begin(), dims.begin() + rank));
}

void BroadcastBinaryF32(BinaryOp op, const NDArray& lhs, const NDArray& rhs, NDArray& output) {
  Dims out_dims;
  const int rank = BroadcastDims(lhs.shape(), rhs.shape(), out_dims);
  TNP_CHECK(ShapeIs(output.shape(), std::span<const std::int64_t>(out_dims.data(),
                                                                   static_cast<std::size_t>(rank))))
      << output.shape().ToString() << " vs " << BroadcastShape(lhs.shape(), rhs.shape()).ToString();

  const auto apply = [op](float a, float b) -> float {
    switch (op) {
      case BinaryOp::kAdd: return a + b;
      case BinaryOp::kSub: return a - b;
      case BinaryOp::kMul: return a * b;
      case BinaryOp::kDiv: return a / b;
      case BinaryOp::kMax: return std::max(a, b);
      case BinaryOp::kMin: return std::min(a, b);
    }
    return 0.0f;
  };

  const float* pa = lhs.Data<float>();
  const float* pb = rhs.Data<float>();
  float* po = output.Data<float>();
  const std::int64_t total = output.NumElements();

  // Fast path: identical shapes.
  if (lhs.shape() == rhs.shape()) {
    support::ParallelFor(0, total, [&](std::int64_t i) { po[i] = apply(pa[i], pb[i]); },
                         /*grain_size=*/4096);
    return;
  }
  // Fast path: scalar rhs or lhs.
  if (rhs.NumElements() == 1) {
    const float b = pb[0];
    support::ParallelFor(0, total, [&](std::int64_t i) { po[i] = apply(pa[i], b); },
                         /*grain_size=*/4096);
    return;
  }
  if (lhs.NumElements() == 1) {
    const float a = pa[0];
    support::ParallelFor(0, total, [&](std::int64_t i) { po[i] = apply(a, pb[i]); },
                         /*grain_size=*/4096);
    return;
  }

  // General path: decode multi-index, compute per-operand strides with zeros
  // on broadcast axes.
  const Dims a_dims = PadShape(lhs.shape(), rank);
  const Dims b_dims = PadShape(rhs.shape(), rank);
  Dims out_strides, a_strides, b_strides;
  std::int64_t so = 1;
  std::int64_t sa = 1;
  std::int64_t sb = 1;
  for (int i = rank - 1; i >= 0; --i) {
    out_strides[static_cast<std::size_t>(i)] = so;
    a_strides[static_cast<std::size_t>(i)] = a_dims[static_cast<std::size_t>(i)] == 1 ? 0 : sa;
    b_strides[static_cast<std::size_t>(i)] = b_dims[static_cast<std::size_t>(i)] == 1 ? 0 : sb;
    so *= out_dims[static_cast<std::size_t>(i)];
    sa *= a_dims[static_cast<std::size_t>(i)];
    sb *= b_dims[static_cast<std::size_t>(i)];
  }

  support::ParallelFor(0, total, [&](std::int64_t flat) {
    std::int64_t rem = flat;
    std::int64_t ia = 0;
    std::int64_t ib = 0;
    for (int i = 0; i < rank; ++i) {
      const std::int64_t idx = rem / out_strides[static_cast<std::size_t>(i)];
      rem %= out_strides[static_cast<std::size_t>(i)];
      ia += idx * a_strides[static_cast<std::size_t>(i)];
      ib += idx * b_strides[static_cast<std::size_t>(i)];
    }
    po[flat] = apply(pa[ia], pb[ib]);
  }, /*grain_size=*/1024);
}

void BiasAddF32(const NDArray& input, const NDArray& bias, NDArray& output, int axis) {
  TNP_CHECK(input.shape() == output.shape());
  const int rank = input.shape().rank();
  if (axis < 0) axis += rank;
  TNP_CHECK(axis >= 0 && axis < rank);
  TNP_CHECK_EQ(bias.NumElements(), input.shape()[axis]);

  const float* in = input.Data<float>();
  const float* b = bias.Data<float>();
  float* out = output.Data<float>();

  std::int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= input.shape()[i];
  const std::int64_t channels = input.shape()[axis];
  std::int64_t inner = 1;
  for (int i = axis + 1; i < rank; ++i) inner *= input.shape()[i];

  support::ParallelFor(0, outer * channels, [&](std::int64_t oc) {
    const float bv = b[oc % channels];
    const float* in_row = in + oc * inner;
    float* out_row = out + oc * inner;
    for (std::int64_t i = 0; i < inner; ++i) out_row[i] = in_row[i] + bv;
  }, /*grain_size=*/16);
}

void BatchNormF32(const NDArray& input, const NDArray& gamma, const NDArray& beta,
                  const NDArray& mean, const NDArray& var, NDArray& output, float epsilon) {
  TNP_CHECK(input.shape() == output.shape());
  TNP_CHECK_EQ(input.shape().rank(), 4);
  const std::int64_t channels = input.shape()[1];
  TNP_CHECK_EQ(gamma.NumElements(), channels);
  TNP_CHECK_EQ(beta.NumElements(), channels);
  TNP_CHECK_EQ(mean.NumElements(), channels);
  TNP_CHECK_EQ(var.NumElements(), channels);

  const float* g = gamma.Data<float>();
  const float* bt = beta.Data<float>();
  const float* mu = mean.Data<float>();
  const float* vr = var.Data<float>();
  const float* in = input.Data<float>();
  float* out = output.Data<float>();
  const std::int64_t batch = input.shape()[0];
  const std::int64_t area = input.shape()[2] * input.shape()[3];
  support::ParallelFor(0, batch * channels, [&](std::int64_t nc) {
    // Fold into this channel's scale/shift.
    const std::int64_t c = nc % channels;
    const float inv_std = 1.0f / std::sqrt(vr[c] + epsilon);
    const float s = g[c] * inv_std;
    const float sh = bt[c] - mu[c] * g[c] * inv_std;
    const float* in_plane = in + nc * area;
    float* out_plane = out + nc * area;
    for (std::int64_t i = 0; i < area; ++i) out_plane[i] = in_plane[i] * s + sh;
  }, /*grain_size=*/8);
}

void SoftmaxF32(const NDArray& input, NDArray& output, int axis) {
  TNP_CHECK(input.shape() == output.shape());
  const int rank = input.shape().rank();
  if (axis < 0) axis += rank;
  TNP_CHECK(axis >= 0 && axis < rank);

  std::int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= input.shape()[i];
  const std::int64_t channels = input.shape()[axis];
  std::int64_t inner = 1;
  for (int i = axis + 1; i < rank; ++i) inner *= input.shape()[i];

  const float* in = input.Data<float>();
  float* out = output.Data<float>();
  support::ParallelFor(0, outer * inner, [&](std::int64_t oi) {
    const std::int64_t o = oi / inner;
    const std::int64_t i = oi % inner;
    const float* in_base = in + o * channels * inner + i;
    float* out_base = out + o * channels * inner + i;
    float max_value = -std::numeric_limits<float>::infinity();
    for (std::int64_t c = 0; c < channels; ++c) {
      max_value = std::max(max_value, in_base[c * inner]);
    }
    double sum = 0.0;
    for (std::int64_t c = 0; c < channels; ++c) {
      const float e = std::exp(in_base[c * inner] - max_value);
      out_base[c * inner] = e;
      sum += e;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t c = 0; c < channels; ++c) out_base[c * inner] *= inv;
  }, /*grain_size=*/32);
}

void Concat(const std::vector<NDArray>& inputs, NDArray& output, int axis) {
  TNP_CHECK(!inputs.empty());
  const int rank = inputs.front().shape().rank();
  if (axis < 0) axis += rank;
  TNP_CHECK(axis >= 0 && axis < rank);
  const std::size_t elem_bytes = DTypeBytes(output.dtype());

  std::int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= output.shape()[i];
  std::int64_t inner_bytes = static_cast<std::int64_t>(elem_bytes);
  for (int i = axis + 1; i < rank; ++i) inner_bytes *= output.shape()[i];

  std::int64_t axis_total = 0;
  for (const auto& in : inputs) {
    TNP_CHECK(in.dtype() == output.dtype());
    TNP_CHECK_EQ(in.shape().rank(), rank);
    for (int i = 0; i < rank; ++i) {
      if (i != axis) {
        TNP_CHECK_EQ(in.shape()[i], output.shape()[i]);
      }
    }
    axis_total += in.shape()[axis];
  }
  TNP_CHECK_EQ(axis_total, output.shape()[axis]);

  char* out_bytes = static_cast<char*>(output.RawData());
  const std::int64_t out_row_bytes = output.shape()[axis] * inner_bytes;
  std::int64_t axis_offset_bytes = 0;
  for (const auto& in : inputs) {
    const char* in_bytes = static_cast<const char*>(in.RawData());
    const std::int64_t in_row_bytes = in.shape()[axis] * inner_bytes;
    for (std::int64_t o = 0; o < outer; ++o) {
      std::memcpy(out_bytes + o * out_row_bytes + axis_offset_bytes,
                  in_bytes + o * in_row_bytes, static_cast<std::size_t>(in_row_bytes));
    }
    axis_offset_bytes += in_row_bytes;
  }
}

void PadConstant(const NDArray& input, NDArray& output,
                 const std::vector<std::int64_t>& pad_before,
                 const std::vector<std::int64_t>& pad_after, double pad_value) {
  const int rank = input.shape().rank();
  TNP_CHECK_EQ(static_cast<int>(pad_before.size()), rank);
  TNP_CHECK_EQ(static_cast<int>(pad_after.size()), rank);
  for (int i = 0; i < rank; ++i) {
    TNP_CHECK_EQ(output.shape()[i],
                 input.shape()[i] + pad_before[static_cast<std::size_t>(i)] +
                     pad_after[static_cast<std::size_t>(i)]);
  }
  TNP_CHECK(input.dtype() == output.dtype());

  // Fill with the pad value, then copy the interior rows.
  switch (output.dtype()) {
    case DType::kFloat32: {
      float* p = output.Data<float>();
      std::fill(p, p + output.NumElements(), static_cast<float>(pad_value));
      break;
    }
    case DType::kInt8: {
      std::int8_t* p = output.Data<std::int8_t>();
      std::fill(p, p + output.NumElements(), static_cast<std::int8_t>(pad_value));
      break;
    }
    default: {
      TNP_CHECK(pad_value == 0.0) << "non-zero pad only supported for float32/int8";
      std::memset(output.RawData(), 0, output.SizeBytes());
    }
  }

  const std::size_t elem_bytes = DTypeBytes(input.dtype());
  const auto out_strides = output.shape().Strides();
  const std::int64_t row = input.shape()[rank - 1];
  std::int64_t num_rows = 1;
  for (int i = 0; i < rank - 1; ++i) num_rows *= input.shape()[i];

  const char* in_bytes = static_cast<const char*>(input.RawData());
  char* out_bytes = static_cast<char*>(output.RawData());
  for (std::int64_t r = 0; r < num_rows; ++r) {
    // Decode the input row index and map to the output offset.
    std::int64_t rem = r;
    std::int64_t out_offset = pad_before[static_cast<std::size_t>(rank - 1)];
    for (int i = rank - 2; i >= 0; --i) {
      const std::int64_t dim = input.shape()[i];
      const std::int64_t idx = rem % dim;
      rem /= dim;
      out_offset += (idx + pad_before[static_cast<std::size_t>(i)]) *
                    out_strides[static_cast<std::size_t>(i)];
    }
    std::memcpy(out_bytes + static_cast<std::size_t>(out_offset) * elem_bytes,
                in_bytes + static_cast<std::size_t>(r * row) * elem_bytes,
                static_cast<std::size_t>(row) * elem_bytes);
  }
}

void UpsamplingNearestF32(const NDArray& input, NDArray& output, std::int64_t scale_h,
                          std::int64_t scale_w) {
  TNP_CHECK_EQ(input.shape().rank(), 4);
  const std::int64_t batch = input.shape()[0];
  const std::int64_t channels = input.shape()[1];
  const std::int64_t in_h = input.shape()[2];
  const std::int64_t in_w = input.shape()[3];
  TNP_CHECK(output.shape() == Shape({batch, channels, in_h * scale_h, in_w * scale_w}));

  const float* in = input.Data<float>();
  float* out = output.Data<float>();
  const std::int64_t out_h = in_h * scale_h;
  const std::int64_t out_w = in_w * scale_w;
  support::ParallelFor(0, batch * channels, [&](std::int64_t nc) {
    const float* in_plane = in + nc * in_h * in_w;
    float* out_plane = out + nc * out_h * out_w;
    for (std::int64_t oh = 0; oh < out_h; ++oh) {
      const float* in_row = in_plane + (oh / scale_h) * in_w;
      float* out_row = out_plane + oh * out_w;
      for (std::int64_t ow = 0; ow < out_w; ++ow) {
        out_row[ow] = in_row[ow / scale_w];
      }
    }
  }, /*grain_size=*/4);
}

void StridedSlice(const NDArray& input, NDArray& output,
                  const std::vector<std::int64_t>& begin, const std::vector<std::int64_t>& end,
                  const std::vector<std::int64_t>& strides) {
  const int rank = input.shape().rank();
  TNP_CHECK_EQ(static_cast<int>(begin.size()), rank);
  TNP_CHECK_EQ(static_cast<int>(end.size()), rank);
  TNP_CHECK_EQ(static_cast<int>(strides.size()), rank);
  TNP_CHECK(input.dtype() == output.dtype());

  for (int i = 0; i < rank; ++i) {
    TNP_CHECK_GT(strides[static_cast<std::size_t>(i)], 0) << "only positive strides supported";
    const std::int64_t extent =
        (end[static_cast<std::size_t>(i)] - begin[static_cast<std::size_t>(i)] +
         strides[static_cast<std::size_t>(i)] - 1) /
        strides[static_cast<std::size_t>(i)];
    TNP_CHECK_EQ(output.shape()[i], extent);
  }

  const std::size_t elem_bytes = DTypeBytes(input.dtype());
  const auto in_strides = input.shape().Strides();
  const char* in_bytes = static_cast<const char*>(input.RawData());
  char* out_bytes = static_cast<char*>(output.RawData());
  const std::int64_t total = output.NumElements();
  const auto out_strides = output.shape().Strides();

  for (std::int64_t flat = 0; flat < total; ++flat) {
    std::int64_t rem = flat;
    std::int64_t in_offset = 0;
    for (int i = 0; i < rank; ++i) {
      const std::int64_t idx = rem / out_strides[static_cast<std::size_t>(i)];
      rem %= out_strides[static_cast<std::size_t>(i)];
      in_offset += (begin[static_cast<std::size_t>(i)] + idx * strides[static_cast<std::size_t>(i)]) *
                   in_strides[static_cast<std::size_t>(i)];
    }
    std::memcpy(out_bytes + static_cast<std::size_t>(flat) * elem_bytes,
                in_bytes + static_cast<std::size_t>(in_offset) * elem_bytes, elem_bytes);
  }
}

void MeanF32(const NDArray& input, NDArray& output, const std::vector<int>& axes) {
  const int rank = input.shape().rank();
  std::vector<bool> reduced(static_cast<std::size_t>(rank), false);
  for (int axis : axes) {
    if (axis < 0) axis += rank;
    TNP_CHECK(axis >= 0 && axis < rank);
    reduced[static_cast<std::size_t>(axis)] = true;
  }

  std::int64_t reduce_count = 1;
  for (int i = 0; i < rank; ++i) {
    if (reduced[static_cast<std::size_t>(i)]) reduce_count *= input.shape()[i];
  }

  const float* in = input.Data<float>();
  float* out = output.Data<float>();
  std::fill(out, out + output.NumElements(), 0.0f);

  const auto in_strides = input.shape().Strides();
  // Map each input element to its output slot.
  const std::int64_t total = input.NumElements();
  for (std::int64_t flat = 0; flat < total; ++flat) {
    std::int64_t rem = flat;
    std::int64_t out_index = 0;
    std::int64_t out_stride = 1;
    // Compute the output flat index by walking axes from last to first over
    // the non-reduced dims.
    std::int64_t indices[8];
    for (int i = 0; i < rank; ++i) {
      indices[i] = rem / in_strides[static_cast<std::size_t>(i)];
      rem %= in_strides[static_cast<std::size_t>(i)];
    }
    for (int i = rank - 1; i >= 0; --i) {
      if (!reduced[static_cast<std::size_t>(i)]) {
        out_index += indices[i] * out_stride;
        out_stride *= input.shape()[i];
      }
    }
    out[out_index] += in[flat];
  }
  const float inv = 1.0f / static_cast<float>(reduce_count);
  for (std::int64_t i = 0; i < output.NumElements(); ++i) out[i] *= inv;
}

void Transpose(const NDArray& input, NDArray& output, const std::vector<int>& axes) {
  const int rank = input.shape().rank();
  TNP_CHECK_EQ(static_cast<int>(axes.size()), rank);
  TNP_CHECK(input.dtype() == output.dtype());
  for (int i = 0; i < rank; ++i) {
    TNP_CHECK_EQ(output.shape()[i], input.shape()[axes[static_cast<std::size_t>(i)]]);
  }

  const std::size_t elem_bytes = DTypeBytes(input.dtype());
  const auto in_strides = input.shape().Strides();
  const auto out_strides = output.shape().Strides();
  const char* in_bytes = static_cast<const char*>(input.RawData());
  char* out_bytes = static_cast<char*>(output.RawData());
  const std::int64_t total = output.NumElements();

  for (std::int64_t flat = 0; flat < total; ++flat) {
    std::int64_t rem = flat;
    std::int64_t in_offset = 0;
    for (int i = 0; i < rank; ++i) {
      const std::int64_t idx = rem / out_strides[static_cast<std::size_t>(i)];
      rem %= out_strides[static_cast<std::size_t>(i)];
      in_offset += idx * in_strides[static_cast<std::size_t>(axes[static_cast<std::size_t>(i)])];
    }
    std::memcpy(out_bytes + static_cast<std::size_t>(flat) * elem_bytes,
                in_bytes + static_cast<std::size_t>(in_offset) * elem_bytes, elem_bytes);
  }
}

void Cast(const NDArray& input, NDArray& output) {
  TNP_CHECK(input.shape() == output.shape());
  const std::int64_t n = input.NumElements();

  const auto read_as_double = [&](std::int64_t i) -> double {
    switch (input.dtype()) {
      case DType::kFloat32: return input.Data<float>()[i];
      case DType::kInt8: return input.Data<std::int8_t>()[i];
      case DType::kUInt8: return input.Data<std::uint8_t>()[i];
      case DType::kInt32: return input.Data<std::int32_t>()[i];
      case DType::kInt64: return static_cast<double>(input.Data<std::int64_t>()[i]);
      case DType::kBool: return input.Data<bool>()[i] ? 1.0 : 0.0;
    }
    return 0.0;
  };

  for (std::int64_t i = 0; i < n; ++i) {
    const double v = read_as_double(i);
    switch (output.dtype()) {
      case DType::kFloat32: output.Data<float>()[i] = static_cast<float>(v); break;
      case DType::kInt8:
        output.Data<std::int8_t>()[i] =
            static_cast<std::int8_t>(std::clamp(v, -128.0, 127.0));
        break;
      case DType::kUInt8:
        output.Data<std::uint8_t>()[i] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
        break;
      case DType::kInt32: output.Data<std::int32_t>()[i] = static_cast<std::int32_t>(v); break;
      case DType::kInt64: output.Data<std::int64_t>()[i] = static_cast<std::int64_t>(v); break;
      case DType::kBool: output.Data<bool>()[i] = v != 0.0; break;
    }
  }
}

}  // namespace kernels
}  // namespace tnp
