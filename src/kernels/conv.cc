#include "kernels/conv.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kernels/gemm.h"
#include "kernels/instrument.h"
#include "kernels/scratch.h"
#include "support/thread_pool.h"

namespace tnp {
namespace kernels {

namespace {

// The s8 im2col packer keeps the pmaddwd path's fixed column-panel width;
// the f32 packer is templated and dispatched on the tuned config's nr.
constexpr int kConvNrS8 = static_cast<int>(kGemmNrS8);

// Below this many output channels per group the GEMM tile is mostly padding
// (depthwise has co_g == 1); a direct per-channel convolution with no packing
// or scratch wins.
constexpr std::int64_t kDirectPathMaxCoG = 4;

// Geometry of one conv call. The fused im2col packing reads from a "padded
// view" of one group's input — either the input itself (no spatial padding)
// or a zero-point-padded scratch copy — so the hot loop is a single
// offset-add per element with no bounds checks:
//
//   patch(kk, pix) = view[koff[kk] + pix_off[pix]]
struct ConvGeometry {
  std::int64_t k = 0;           ///< ci_g * kernel_h * kernel_w
  std::int64_t npix = 0;        ///< out_h * out_w
  std::int64_t view_h = 0;      ///< padded view height
  std::int64_t view_w = 0;      ///< padded view width
  bool needs_copy = false;      ///< view != raw input (padding present)
  const std::int64_t* koff;     ///< [k] channel-plane + kernel-tap offset
  const std::int64_t* pix_off;  ///< [npix] output-pixel offset
};

ConvGeometry BuildGeometry(ScratchFrame& frame, std::int64_t ci_g, std::int64_t in_h,
                           std::int64_t in_w, std::int64_t kernel_h, std::int64_t kernel_w,
                           std::int64_t out_h, std::int64_t out_w, const Conv2DParams& p) {
  ConvGeometry geo;
  geo.k = ci_g * kernel_h * kernel_w;
  geo.npix = out_h * out_w;
  geo.needs_copy = p.pad_h != 0 || p.pad_w != 0;
  if (geo.needs_copy) {
    // Exact extent the kernel footprint touches in padded coordinates.
    geo.view_h = (out_h - 1) * p.stride_h + (kernel_h - 1) * p.dilation_h + 1;
    geo.view_w = (out_w - 1) * p.stride_w + (kernel_w - 1) * p.dilation_w + 1;
  } else {
    geo.view_h = in_h;
    geo.view_w = in_w;
  }
  std::int64_t* koff = frame.Alloc<std::int64_t>(geo.k);
  std::int64_t* pix_off = frame.Alloc<std::int64_t>(geo.npix);
  std::int64_t kk = 0;
  for (std::int64_t c = 0; c < ci_g; ++c) {
    for (std::int64_t kh = 0; kh < kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < kernel_w; ++kw, ++kk) {
        koff[kk] = (c * geo.view_h + kh * p.dilation_h) * geo.view_w + kw * p.dilation_w;
      }
    }
  }
  for (std::int64_t pix = 0; pix < geo.npix; ++pix) {
    pix_off[pix] = (pix / out_w) * p.stride_h * geo.view_w + (pix % out_w) * p.stride_w;
  }
  geo.koff = koff;
  geo.pix_off = pix_off;
  return geo;
}

// Copy one group's input into the zero-point-padded view.
template <typename T>
void FillPaddedView(const T* in_group, std::int64_t ci_g, std::int64_t in_h,
                    std::int64_t in_w, const ConvGeometry& geo, const Conv2DParams& p,
                    T pad_value, T* view) {
  for (std::int64_t c = 0; c < ci_g; ++c) {
    const T* src_plane = in_group + c * in_h * in_w;
    T* dst_plane = view + c * geo.view_h * geo.view_w;
    for (std::int64_t vh = 0; vh < geo.view_h; ++vh) {
      T* dst_row = dst_plane + vh * geo.view_w;
      const std::int64_t ih = vh - p.pad_h;
      if (ih < 0 || ih >= in_h) {
        std::fill(dst_row, dst_row + geo.view_w, pad_value);
        continue;
      }
      const T* src_row = src_plane + ih * in_w;
      const std::int64_t left = std::min(p.pad_w, geo.view_w);
      const std::int64_t copy =
          std::max<std::int64_t>(0, std::min(geo.view_w - p.pad_w, in_w));
      std::fill(dst_row, dst_row + left, pad_value);
      std::memcpy(dst_row + left, src_row, static_cast<std::size_t>(copy) * sizeof(T));
      std::fill(dst_row + left + copy, dst_row + geo.view_w, pad_value);
    }
  }
}

// Fused im2col + B-panel packing from the padded view: writes one group's
// logical patch matrix (k x npix) straight into NR column panels. Templated
// on the panel width so every tuned nr keeps the unrolled full-panel fast
// path.
template <int NR>
void PackIm2ColPanelsImpl(const float* view, const ConvGeometry& geo, float* out) {
  const std::int64_t k = geo.k;
  const std::int64_t npix = geo.npix;
  for (std::int64_t jp = 0; jp * NR < npix; ++jp) {
    const std::int64_t nr = std::min<std::int64_t>(NR, npix - jp * NR);
    const std::int64_t* poff = geo.pix_off + jp * NR;
    float* panel = out + jp * NR * k;
    if (nr == NR) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* src = view + geo.koff[kk];
        float* row = panel + kk * NR;
        for (int j = 0; j < NR; ++j) row[j] = src[poff[j]];
      }
    } else {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* src = view + geo.koff[kk];
        float* row = panel + kk * NR;
        std::int64_t j = 0;
        for (; j < nr; ++j) row[j] = src[poff[j]];
        for (; j < NR; ++j) row[j] = 0.0f;
      }
    }
  }
}

void PackIm2ColPanels(const float* view, const ConvGeometry& geo, float* out,
                      std::int64_t nr) {
  switch (nr) {
    case 4: PackIm2ColPanelsImpl<4>(view, geo, out); return;
    case 8: PackIm2ColPanelsImpl<8>(view, geo, out); return;
    case 16: PackIm2ColPanelsImpl<16>(view, geo, out); return;
    default:
      TNP_THROW(kRuntimeError) << "no im2col packer for column-panel width " << nr;
  }
}

// s8 variant writing pair-interleaved panels (see pack.h). Also accumulates
// per-column sums for the zero-point correction — over real columns,
// including padding positions (which hold the input zero point, see
// QConv2DS8); packed zero padding contributes 0 to both products and sums.
void PackIm2ColPanelsS8(const std::int8_t* view, const ConvGeometry& geo,
                        std::int8_t* out, std::int32_t* col_sums) {
  constexpr int NR = kConvNrS8;
  const std::int64_t k = geo.k;
  const std::int64_t k2 = PackedKS8(k);
  const std::int64_t npix = geo.npix;
  for (std::int64_t jp = 0; jp * NR < npix; ++jp) {
    const std::int64_t nr = std::min<std::int64_t>(NR, npix - jp * NR);
    const std::int64_t* poff = geo.pix_off + jp * NR;
    std::int8_t* panel = out + jp * NR * k2;
    for (std::int64_t p = 0; p < k2 / 2; ++p) {
      const std::int64_t kk0 = 2 * p;
      const bool has1 = kk0 + 1 < k;
      const std::int8_t* src0 = view + geo.koff[kk0];
      std::int8_t* dst = panel + p * 2 * NR;
      if (nr == NR && has1) {
        const std::int8_t* src1 = view + geo.koff[kk0 + 1];
        for (int j = 0; j < NR; ++j) {
          dst[j * 2 + 0] = src0[poff[j]];
          dst[j * 2 + 1] = src1[poff[j]];
        }
      } else {
        const std::int8_t* src1 = has1 ? view + geo.koff[kk0 + 1] : nullptr;
        std::int64_t j = 0;
        for (; j < nr; ++j) {
          dst[j * 2 + 0] = src0[poff[j]];
          dst[j * 2 + 1] = has1 ? src1[poff[j]] : std::int8_t{0};
        }
        for (; j < NR; ++j) {
          dst[j * 2 + 0] = 0;
          dst[j * 2 + 1] = 0;
        }
      }
    }
    if (col_sums != nullptr) {
      std::int32_t* sums = col_sums + jp * NR;
      for (std::int64_t j = 0; j < nr; ++j) sums[j] = 0;
      for (std::int64_t p = 0; p < k2 / 2; ++p) {
        const std::int8_t* dst = panel + p * 2 * NR;
        for (std::int64_t j = 0; j < nr; ++j) sums[j] += dst[j * 2] + dst[j * 2 + 1];
      }
    }
  }
}

// Bounds of the output region whose kernel footprint never leaves the input
// (the checked border loop only runs outside [lo, hi)).
struct InteriorRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

InteriorRange ComputeInterior(std::int64_t out_extent, std::int64_t in_extent,
                              std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                              std::int64_t dilation) {
  InteriorRange r;
  r.lo = std::min(out_extent, (pad + stride - 1) / stride);
  const std::int64_t last_tap = (kernel - 1) * dilation;
  const std::int64_t max_o = (in_extent - 1 - last_tap + pad) / stride;
  r.hi = std::max(r.lo, std::min(out_extent, max_o + 1));
  return r;
}

void ValidatePackedConvWeights(const PackedMatrix& packed, DType dtype, std::int64_t co_g,
                               std::int64_t k, std::int64_t groups) {
  TNP_CHECK(packed.side == PackedMatrix::Side::kA);
  TNP_CHECK(packed.dtype == dtype);
  TNP_CHECK_EQ(packed.rows, co_g);
  TNP_CHECK_EQ(packed.cols, k);
  TNP_CHECK_EQ(packed.groups, groups);
}

}  // namespace

bool Conv2DUsesPackedWeights(std::int64_t co_per_group) {
  return co_per_group >= kDirectPathMaxCoG;
}

void Conv2DF32(const NDArray& input, const NDArray& weight, const NDArray& bias,
               NDArray& output, const Conv2DParams& p,
               const PackedMatrix* packed_weights) {
  TNP_KERNEL_SPAN("Conv2DF32");
  const auto expected = Conv2DOutDims(input.shape(), weight.shape(), p);
  TNP_CHECK(ShapeIs(output.shape(), expected))
      << "conv2d output shape " << output.shape().ToString() << " != "
      << Conv2DOutShape(input.shape(), weight.shape(), p).ToString();

  const std::int64_t batch = input.shape()[0];
  const std::int64_t ci = input.shape()[1];
  const std::int64_t in_h = input.shape()[2];
  const std::int64_t in_w = input.shape()[3];
  const std::int64_t co = weight.shape()[0];
  const std::int64_t ci_g = weight.shape()[1];
  const std::int64_t kernel_h = weight.shape()[2];
  const std::int64_t kernel_w = weight.shape()[3];
  const std::int64_t out_h = expected[2];
  const std::int64_t out_w = expected[3];
  const std::int64_t co_g = co / p.groups;
  TNP_CHECK_EQ(co % p.groups, 0);

  const float* in_data = input.Data<float>();
  const float* w_data = weight.Data<float>();
  const float* bias_data = bias.defined() ? bias.Data<float>() : nullptr;
  float* out_data = output.Data<float>();

  const std::int64_t k = ci_g * kernel_h * kernel_w;
  const std::int64_t npix = out_h * out_w;

  if (co_g < kDirectPathMaxCoG) {
    // Depthwise / few-channel groups: the GEMM tile would be mostly padding.
    // Compute each output plane directly, with an unchecked interior loop and
    // a bounds-checked border.
    const InteriorRange ohr =
        ComputeInterior(out_h, in_h, kernel_h, p.stride_h, p.pad_h, p.dilation_h);
    const InteriorRange owr =
        ComputeInterior(out_w, in_w, kernel_w, p.stride_w, p.pad_w, p.dilation_w);
    support::ParallelFor(0, batch * co, [&](std::int64_t idx) {
      const std::int64_t n = idx / co;
      const std::int64_t oc = idx % co;
      const std::int64_t g = oc / co_g;
      const float* w_oc = w_data + oc * k;
      const float* in_group = in_data + (n * ci + g * ci_g) * in_h * in_w;
      float* out_plane = out_data + idx * npix;
      const float b = bias_data != nullptr ? bias_data[oc] : 0.0f;
      auto checked_pixel = [&](std::int64_t oh, std::int64_t ow) {
        float acc = b;
        for (std::int64_t c = 0; c < ci_g; ++c) {
          const float* plane = in_group + c * in_h * in_w;
          for (std::int64_t kh = 0; kh < kernel_h; ++kh) {
            const std::int64_t ih = oh * p.stride_h - p.pad_h + kh * p.dilation_h;
            if (ih < 0 || ih >= in_h) continue;
            const float* in_row = plane + ih * in_w;
            const float* w_row = w_oc + (c * kernel_h + kh) * kernel_w;
            for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
              const std::int64_t iw = ow * p.stride_w - p.pad_w + kw * p.dilation_w;
              if (iw < 0 || iw >= in_w) continue;
              acc += in_row[iw] * w_row[kw];
            }
          }
        }
        out_plane[oh * out_w + ow] = acc;
      };
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        const bool row_interior = oh >= ohr.lo && oh < ohr.hi;
        std::int64_t ow = 0;
        if (row_interior) {
          for (; ow < owr.lo; ++ow) checked_pixel(oh, ow);
          const float* in_base =
              in_group + (oh * p.stride_h - p.pad_h) * in_w - p.pad_w;
          for (; ow < owr.hi; ++ow) {
            const float* in_pix = in_base + ow * p.stride_w;
            float acc = b;
            const float* w_ptr = w_oc;
            for (std::int64_t c = 0; c < ci_g; ++c) {
              const float* plane = in_pix + c * in_h * in_w;
              for (std::int64_t kh = 0; kh < kernel_h; ++kh) {
                const float* in_row = plane + kh * p.dilation_h * in_w;
                for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
                  acc += in_row[kw * p.dilation_w] * *w_ptr++;
                }
              }
            }
            out_plane[oh * out_w + ow] = acc;
          }
        }
        for (; ow < out_w; ++ow) checked_pixel(oh, ow);
      }
    }, /*grain_size=*/1);
    return;
  }

  ScratchFrame frame;
  const ConvGeometry geo =
      BuildGeometry(frame, ci_g, in_h, in_w, kernel_h, kernel_w, out_h, out_w, p);

  // Pre-packed weights carry the tuned schedule they were packed under; the
  // scratch fallback packs (and runs) the untuned default.
  const GemmConfig cfg =
      packed_weights != nullptr ? packed_weights->config : GemmConfig::DefaultF32();
  const std::int64_t group_stride = PackedExtent(co_g, cfg.mr) * k;
  const float* wpanels;
  if (packed_weights != nullptr) {
    ValidatePackedConvWeights(*packed_weights, DType::kFloat32, co_g, k, p.groups);
    wpanels = packed_weights->data.Data<float>();
  } else {
    float* scratch_panels = frame.Alloc<float>(p.groups * group_stride);
    for (std::int64_t g = 0; g < p.groups; ++g) {
      PackPanelsAF32(w_data + g * co_g * k, co_g, k, k, scratch_panels + g * group_stride,
                     cfg.mr);
    }
    CountWeightPack(p.groups * group_stride * static_cast<std::int64_t>(sizeof(float)));
    wpanels = scratch_panels;
  }

  float* view_buf =
      geo.needs_copy ? frame.Alloc<float>(ci_g * geo.view_h * geo.view_w) : nullptr;
  float* bpanels = frame.Alloc<float>(PackedExtent(npix, cfg.nr) * k);
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t g = 0; g < p.groups; ++g) {
      const float* in_group = in_data + (n * ci + g * ci_g) * in_h * in_w;
      const float* view = in_group;
      if (geo.needs_copy) {
        FillPaddedView(in_group, ci_g, in_h, in_w, geo, p, 0.0f, view_buf);
        view = view_buf;
      }
      PackIm2ColPanels(view, geo, bpanels, cfg.nr);
      float* out_group = out_data + (n * co + g * co_g) * npix;
      GemmPackedF32(wpanels + g * group_stride, bpanels, out_group, co_g, k, npix, npix,
                    /*parallel=*/true, cfg);
    }
  }

  if (bias_data != nullptr) {
    TNP_CHECK_EQ(bias.NumElements(), co);
    support::ParallelFor(0, batch * co, [&](std::int64_t nc) {
      const float b = bias_data[nc % co];
      float* row = out_data + nc * npix;
      for (std::int64_t i = 0; i < npix; ++i) row[i] += b;
    }, /*grain_size=*/8);
  }
}

void QConv2DS8(const NDArray& input, const NDArray& weight, const NDArray& bias,
               NDArray& output, const Conv2DParams& p, const QuantParams& input_q,
               const QuantParams& weight_q, const QuantParams& output_q,
               const PackedMatrix* packed_weights) {
  TNP_KERNEL_SPAN("QConv2DS8");
  TNP_CHECK(input_q.valid && weight_q.valid && output_q.valid);
  const auto expected = Conv2DOutDims(input.shape(), weight.shape(), p);
  TNP_CHECK(ShapeIs(output.shape(), expected));

  const std::int64_t batch = input.shape()[0];
  const std::int64_t ci = input.shape()[1];
  const std::int64_t in_h = input.shape()[2];
  const std::int64_t in_w = input.shape()[3];
  const std::int64_t co = weight.shape()[0];
  const std::int64_t ci_g = weight.shape()[1];
  const std::int64_t kernel_h = weight.shape()[2];
  const std::int64_t kernel_w = weight.shape()[3];
  const std::int64_t out_h = expected[2];
  const std::int64_t out_w = expected[3];
  const std::int64_t co_g = co / p.groups;
  TNP_CHECK_EQ(co % p.groups, 0);

  const std::int8_t* in_data = input.Data<std::int8_t>();
  const std::int8_t* w_data = weight.Data<std::int8_t>();
  const std::int32_t* bias_data = bias.defined() ? bias.Data<std::int32_t>() : nullptr;
  std::int8_t* out_data = output.Data<std::int8_t>();

  const std::int64_t k = ci_g * kernel_h * kernel_w;
  const std::int64_t npix = out_h * out_w;

  // Single real multiplier mapping the int32 accumulator back to int8 space.
  const float multiplier = input_q.scale * weight_q.scale / output_q.scale;
  const std::int32_t in_zp = input_q.zero_point;
  const std::int32_t w_zp = weight_q.zero_point;
  const float out_zp = static_cast<float>(output_q.zero_point);

  if (co_g < kDirectPathMaxCoG) {
    // Direct path (depthwise etc.): padding contributes (z_in - z_in) = 0,
    // so out-of-bounds taps are simply skipped in the checked border loop —
    // exact; the interior loop needs no checks at all.
    const InteriorRange ohr =
        ComputeInterior(out_h, in_h, kernel_h, p.stride_h, p.pad_h, p.dilation_h);
    const InteriorRange owr =
        ComputeInterior(out_w, in_w, kernel_w, p.stride_w, p.pad_w, p.dilation_w);
    support::ParallelFor(0, batch * co, [&](std::int64_t idx) {
      const std::int64_t n = idx / co;
      const std::int64_t oc = idx % co;
      const std::int64_t g = oc / co_g;
      const std::int8_t* w_oc = w_data + oc * k;
      const std::int8_t* in_group = in_data + (n * ci + g * ci_g) * in_h * in_w;
      std::int8_t* out_plane = out_data + idx * npix;
      const std::int32_t b = bias_data != nullptr ? bias_data[oc] : 0;
      std::int32_t w_sum = 0;
      for (std::int64_t t = 0; t < k; ++t) w_sum += w_oc[t];
      const std::int32_t zp_const =
          static_cast<std::int32_t>(k) * in_zp * w_zp - in_zp * w_sum;
      auto requantize = [&](std::int32_t acc) {
        const float scaled =
            std::nearbyintf(static_cast<float>(acc + b) * multiplier) + out_zp;
        return static_cast<std::int8_t>(std::clamp(scaled, -128.0f, 127.0f));
      };
      auto checked_pixel = [&](std::int64_t oh, std::int64_t ow) {
        std::int32_t acc = 0;
        for (std::int64_t c = 0; c < ci_g; ++c) {
          const std::int8_t* plane = in_group + c * in_h * in_w;
          for (std::int64_t kh = 0; kh < kernel_h; ++kh) {
            const std::int64_t ih = oh * p.stride_h - p.pad_h + kh * p.dilation_h;
            if (ih < 0 || ih >= in_h) continue;
            const std::int8_t* in_row = plane + ih * in_w;
            const std::int8_t* w_row = w_oc + (c * kernel_h + kh) * kernel_w;
            for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
              const std::int64_t iw = ow * p.stride_w - p.pad_w + kw * p.dilation_w;
              if (iw < 0 || iw >= in_w) continue;
              acc += (static_cast<std::int32_t>(in_row[iw]) - in_zp) *
                     (static_cast<std::int32_t>(w_row[kw]) - w_zp);
            }
          }
        }
        out_plane[oh * out_w + ow] = requantize(acc);
      };
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        const bool row_interior = oh >= ohr.lo && oh < ohr.hi;
        std::int64_t ow = 0;
        if (row_interior) {
          for (; ow < owr.lo; ++ow) checked_pixel(oh, ow);
          const std::int8_t* in_base =
              in_group + (oh * p.stride_h - p.pad_h) * in_w - p.pad_w;
          for (; ow < owr.hi; ++ow) {
            const std::int8_t* in_pix = in_base + ow * p.stride_w;
            // Unchecked interior: accumulate the raw product and the input
            // sum in one pass, fold both zero points afterwards (exact in
            // integer math).
            std::int32_t raw = 0;
            std::int32_t in_sum = 0;
            const std::int8_t* w_ptr = w_oc;
            for (std::int64_t c = 0; c < ci_g; ++c) {
              const std::int8_t* plane = in_pix + c * in_h * in_w;
              for (std::int64_t kh = 0; kh < kernel_h; ++kh) {
                const std::int8_t* in_row = plane + kh * p.dilation_h * in_w;
                for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
                  const std::int32_t x = in_row[kw * p.dilation_w];
                  raw += x * static_cast<std::int32_t>(*w_ptr++);
                  in_sum += x;
                }
              }
            }
            out_plane[oh * out_w + ow] = requantize(raw - w_zp * in_sum + zp_const);
          }
        }
        for (; ow < out_w; ++ow) checked_pixel(oh, ow);
      }
    }, /*grain_size=*/1);
    return;
  }

  ScratchFrame frame;
  const ConvGeometry geo =
      BuildGeometry(frame, ci_g, in_h, in_w, kernel_h, kernel_w, out_h, out_w, p);

  // s8 keeps the 4x8 layout contract; the tuned config varies kc/nc only.
  const GemmConfig qcfg =
      packed_weights != nullptr ? packed_weights->config : GemmConfig::DefaultS8();
  const std::int64_t group_stride = PackedExtent(co_g, qcfg.mr) * PackedKS8(k);
  const std::int8_t* wpanels;
  const std::int32_t* wrow_sums;
  if (packed_weights != nullptr) {
    ValidatePackedConvWeights(*packed_weights, DType::kInt8, co_g, k, p.groups);
    wpanels = packed_weights->data.Data<std::int8_t>();
    wrow_sums = packed_weights->sums.Data<std::int32_t>();
  } else {
    std::int8_t* scratch_panels = frame.Alloc<std::int8_t>(p.groups * group_stride);
    std::int32_t* scratch_sums = frame.Alloc<std::int32_t>(co);
    for (std::int64_t g = 0; g < p.groups; ++g) {
      PackPanelsAS8(w_data + g * co_g * k, co_g, k, k, scratch_panels + g * group_stride,
                    scratch_sums + g * co_g);
    }
    CountWeightPack(p.groups * group_stride +
                    co * static_cast<std::int64_t>(sizeof(std::int32_t)));
    wpanels = scratch_panels;
    wrow_sums = scratch_sums;
  }

  std::int8_t* view_buf =
      geo.needs_copy ? frame.Alloc<std::int8_t>(ci_g * geo.view_h * geo.view_w) : nullptr;
  std::int8_t* bpanels =
      frame.Alloc<std::int8_t>(PackedExtent(npix, kConvNrS8) * PackedKS8(k));
  std::int32_t* col_sums = frame.Alloc<std::int32_t>(npix);
  std::int32_t* acc = frame.Alloc<std::int32_t>(co_g * npix);

  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t g = 0; g < p.groups; ++g) {
      const std::int8_t* in_group = in_data + (n * ci + g * ci_g) * in_h * in_w;
      const std::int8_t* view = in_group;
      if (geo.needs_copy) {
        // Padding positions must contribute zero *after* zero-point shift, so
        // pad with the input zero-point itself.
        FillPaddedView(in_group, ci_g, in_h, in_w, geo, p,
                       static_cast<std::int8_t>(input_q.zero_point), view_buf);
        view = view_buf;
      }
      PackIm2ColPanelsS8(view, geo, bpanels, col_sums);
      GemmPackedS8S32(wpanels + g * group_stride, bpanels, acc, co_g, k, npix, npix,
                      /*parallel=*/true, qcfg);
      ApplyZeroPointCorrection(acc, co_g, npix, npix, k, w_zp, in_zp,
                               wrow_sums + g * co_g, col_sums);

      std::int8_t* out_group = out_data + (n * co + g * co_g) * npix;
      support::ParallelFor(0, co_g, [&](std::int64_t oc) {
        const std::int32_t b = bias_data != nullptr ? bias_data[g * co_g + oc] : 0;
        const std::int32_t* acc_row = acc + oc * npix;
        std::int8_t* out_row = out_group + oc * npix;
        for (std::int64_t i = 0; i < npix; ++i) {
          const float scaled =
              std::nearbyintf(static_cast<float>(acc_row[i] + b) * multiplier) + out_zp;
          out_row[i] = static_cast<std::int8_t>(std::clamp(scaled, -128.0f, 127.0f));
        }
      }, /*grain_size=*/4);
    }
  }
}

}  // namespace kernels
}  // namespace tnp
