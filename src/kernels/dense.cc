#include "kernels/dense.h"

#include <algorithm>
#include <cmath>

#include "kernels/common.h"
#include "kernels/gemm.h"
#include "kernels/instrument.h"
#include "kernels/scratch.h"
#include "support/thread_pool.h"

namespace tnp {
namespace kernels {

namespace {

void ValidatePackedDenseWeights(const PackedMatrix& packed, DType dtype, std::int64_t k,
                                std::int64_t n) {
  TNP_CHECK(packed.side == PackedMatrix::Side::kB);
  TNP_CHECK(packed.dtype == dtype);
  TNP_CHECK_EQ(packed.rows, k);
  TNP_CHECK_EQ(packed.cols, n);
}

}  // namespace

void DenseF32(const NDArray& input, const NDArray& weight, const NDArray& bias,
              NDArray& output, const PackedMatrix* packed_weights) {
  TNP_KERNEL_SPAN("DenseF32");
  TNP_CHECK_EQ(input.shape().rank(), 2);
  TNP_CHECK_EQ(weight.shape().rank(), 2);
  const std::int64_t m = input.shape()[0];
  const std::int64_t k = input.shape()[1];
  const std::int64_t n = weight.shape()[0];
  TNP_CHECK_EQ(weight.shape()[1], k);
  TNP_CHECK(ShapeIs(output.shape(), std::array{m, n}));

  const float* in_data = input.Data<float>();
  const float* w_data = weight.Data<float>();
  const float* bias_data = bias.defined() ? bias.Data<float>() : nullptr;
  float* out_data = output.Data<float>();

  if (m == 1) {
    // GEMV: the N x K weight matrix already has each output's reduction
    // contiguous — packing would only add traffic.
    support::ParallelFor(0, n, [&](std::int64_t j) {
      const float* w_row = w_data + j * k;
      float acc = bias_data != nullptr ? bias_data[j] : 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += in_data[kk] * w_row[kk];
      out_data[j] = acc;
    }, /*grain_size=*/16);
    return;
  }

  ScratchFrame frame;
  // Pre-packed weights carry the tuned schedule; the activation side is
  // packed per call at the same config so panels and core always agree.
  const GemmConfig cfg =
      packed_weights != nullptr ? packed_weights->config : GemmConfig::DefaultF32();
  const float* bpanels;
  if (packed_weights != nullptr) {
    ValidatePackedDenseWeights(*packed_weights, DType::kFloat32, k, n);
    bpanels = packed_weights->data.Data<float>();
  } else {
    float* scratch_panels = frame.Alloc<float>(PackedExtent(n, cfg.nr) * k);
    PackPanelsBTransF32(w_data, k, n, k, scratch_panels, cfg.nr);
    CountWeightPack(PackedExtent(n, cfg.nr) * k *
                    static_cast<std::int64_t>(sizeof(float)));
    bpanels = scratch_panels;
  }
  float* apanels = frame.Alloc<float>(PackedExtent(m, cfg.mr) * k);
  PackPanelsAF32(in_data, m, k, k, apanels, cfg.mr);
  GemmPackedF32(apanels, bpanels, out_data, m, k, n, n, /*parallel=*/true, cfg);

  if (bias_data != nullptr) {
    support::ParallelFor(0, m, [&](std::int64_t i) {
      float* row = out_data + i * n;
      for (std::int64_t j = 0; j < n; ++j) row[j] += bias_data[j];
    }, /*grain_size=*/4);
  }
}

void QDenseS8(const NDArray& input, const NDArray& weight, const NDArray& bias,
              NDArray& output, const QuantParams& input_q, const QuantParams& weight_q,
              const QuantParams& output_q, const PackedMatrix* packed_weights) {
  TNP_KERNEL_SPAN("QDenseS8");
  TNP_CHECK(input_q.valid && weight_q.valid && output_q.valid);
  TNP_CHECK_EQ(input.shape().rank(), 2);
  TNP_CHECK_EQ(weight.shape().rank(), 2);
  const std::int64_t m = input.shape()[0];
  const std::int64_t k = input.shape()[1];
  const std::int64_t n = weight.shape()[0];
  TNP_CHECK_EQ(weight.shape()[1], k);
  TNP_CHECK(ShapeIs(output.shape(), std::array{m, n}));

  const std::int8_t* in_data = input.Data<std::int8_t>();
  const std::int8_t* w_data = weight.Data<std::int8_t>();
  const std::int32_t* bias_data = bias.defined() ? bias.Data<std::int32_t>() : nullptr;
  std::int8_t* out_data = output.Data<std::int8_t>();
  const float multiplier = input_q.scale * weight_q.scale / output_q.scale;
  const std::int32_t in_zp = input_q.zero_point;
  const std::int32_t w_zp = weight_q.zero_point;
  const float out_zp = static_cast<float>(output_q.zero_point);

  auto requantize = [&](std::int32_t acc) {
    const float scaled = std::nearbyintf(static_cast<float>(acc) * multiplier) + out_zp;
    return static_cast<std::int8_t>(std::clamp(scaled, -128.0f, 127.0f));
  };

  if (m == 1) {
    // Factorized GEMV: raw s8 dot per output, zero points folded in after.
    std::int32_t in_sum = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) in_sum += in_data[kk];
    const std::int32_t kzz = static_cast<std::int32_t>(k) * in_zp * w_zp;
    const std::int32_t* wrow_sums =
        packed_weights != nullptr && packed_weights->sums.defined()
            ? packed_weights->sums.Data<std::int32_t>()
            : nullptr;
    support::ParallelFor(0, n, [&](std::int64_t j) {
      const std::int8_t* w_row = w_data + j * k;
      std::int32_t acc = 0;
      std::int32_t w_sum;
      if (wrow_sums != nullptr) {
        w_sum = wrow_sums[j];
        for (std::int64_t kk = 0; kk < k; ++kk) {
          acc += static_cast<std::int32_t>(in_data[kk]) *
                 static_cast<std::int32_t>(w_row[kk]);
        }
      } else {
        w_sum = 0;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          acc += static_cast<std::int32_t>(in_data[kk]) *
                 static_cast<std::int32_t>(w_row[kk]);
          w_sum += w_row[kk];
        }
      }
      acc += kzz - in_zp * w_sum - w_zp * in_sum;
      if (bias_data != nullptr) acc += bias_data[j];
      out_data[j] = requantize(acc);
    }, /*grain_size=*/16);
    return;
  }

  ScratchFrame frame;
  // s8 keeps the 4x8 layout contract; the tuned config varies kc/nc only.
  const GemmConfig cfg =
      packed_weights != nullptr ? packed_weights->config : GemmConfig::DefaultS8();
  const std::int8_t* bpanels;
  const std::int32_t* wcol_sums;
  if (packed_weights != nullptr) {
    ValidatePackedDenseWeights(*packed_weights, DType::kInt8, k, n);
    bpanels = packed_weights->data.Data<std::int8_t>();
    wcol_sums = packed_weights->sums.Data<std::int32_t>();
  } else {
    std::int8_t* scratch_panels =
        frame.Alloc<std::int8_t>(PackedExtent(n, cfg.nr) * PackedKS8(k));
    std::int32_t* scratch_sums = frame.Alloc<std::int32_t>(n);
    PackPanelsBTransS8(w_data, k, n, k, scratch_panels, scratch_sums, cfg.nr);
    CountWeightPack(PackedExtent(n, cfg.nr) * PackedKS8(k) +
                    n * static_cast<std::int64_t>(sizeof(std::int32_t)));
    bpanels = scratch_panels;
    wcol_sums = scratch_sums;
  }
  std::int8_t* apanels = frame.Alloc<std::int8_t>(PackedExtent(m, cfg.mr) * PackedKS8(k));
  std::int32_t* in_row_sums = frame.Alloc<std::int32_t>(m);
  std::int32_t* acc = frame.Alloc<std::int32_t>(m * n);
  PackPanelsAS8(in_data, m, k, k, apanels, in_row_sums, cfg.mr);
  GemmPackedS8S32(apanels, bpanels, acc, m, k, n, n, /*parallel=*/true, cfg);
  ApplyZeroPointCorrection(acc, m, n, n, k, in_zp, w_zp, in_row_sums, wcol_sums);

  support::ParallelFor(0, m, [&](std::int64_t i) {
    const std::int32_t* acc_row = acc + i * n;
    std::int8_t* out_row = out_data + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t a = acc_row[j];
      if (bias_data != nullptr) a += bias_data[j];
      out_row[j] = requantize(a);
    }
  }, /*grain_size=*/4);
}

}  // namespace kernels
}  // namespace tnp
