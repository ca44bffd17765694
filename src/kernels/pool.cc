#include "kernels/pool.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/instrument.h"
#include "support/thread_pool.h"

namespace tnp {
namespace kernels {

namespace {

template <typename T, typename Reduce>
void PoolImpl(const NDArray& input, NDArray& output, const Pool2DParams& p, Reduce reduce) {
  const auto expected = Pool2DOutDims(input.shape(), p);
  TNP_CHECK(ShapeIs(output.shape(), expected));
  const std::int64_t batch = input.shape()[0];
  const std::int64_t channels = input.shape()[1];
  const std::int64_t in_h = input.shape()[2];
  const std::int64_t in_w = input.shape()[3];
  const std::int64_t out_h = expected[2];
  const std::int64_t out_w = expected[3];

  const T* in_data = input.Data<T>();
  T* out_data = output.Data<T>();

  support::ParallelFor(0, batch * channels, [&](std::int64_t nc) {
    const T* in_plane = in_data + nc * in_h * in_w;
    T* out_plane = out_data + nc * out_h * out_w;
    for (std::int64_t oh = 0; oh < out_h; ++oh) {
      for (std::int64_t ow = 0; ow < out_w; ++ow) {
        const std::int64_t h0 = oh * p.stride_h - p.pad_h;
        const std::int64_t w0 = ow * p.stride_w - p.pad_w;
        const std::int64_t h_lo = std::max<std::int64_t>(0, h0);
        const std::int64_t h_hi = std::min(in_h, h0 + p.kernel_h);
        const std::int64_t w_lo = std::max<std::int64_t>(0, w0);
        const std::int64_t w_hi = std::min(in_w, w0 + p.kernel_w);
        out_plane[oh * out_w + ow] = reduce(in_plane, in_w, h_lo, h_hi, w_lo, w_hi);
      }
    }
  }, /*grain_size=*/4);
}

template <typename T>
T WindowMax(const T* plane, std::int64_t in_w, std::int64_t h_lo, std::int64_t h_hi,
            std::int64_t w_lo, std::int64_t w_hi) {
  T best = std::numeric_limits<T>::lowest();
  for (std::int64_t h = h_lo; h < h_hi; ++h) {
    for (std::int64_t w = w_lo; w < w_hi; ++w) {
      best = std::max(best, plane[h * in_w + w]);
    }
  }
  return best;
}

}  // namespace

void MaxPool2DF32(const NDArray& input, NDArray& output, const Pool2DParams& p) {
  TNP_KERNEL_SPAN("MaxPool2DF32");
  PoolImpl<float>(input, output, p,
                  [](const float* plane, std::int64_t in_w, std::int64_t h_lo, std::int64_t h_hi,
                     std::int64_t w_lo, std::int64_t w_hi) {
                    return WindowMax(plane, in_w, h_lo, h_hi, w_lo, w_hi);
                  });
}

void MaxPool2DS8(const NDArray& input, NDArray& output, const Pool2DParams& p) {
  TNP_KERNEL_SPAN("MaxPool2DS8");
  PoolImpl<std::int8_t>(
      input, output, p,
      [](const std::int8_t* plane, std::int64_t in_w, std::int64_t h_lo, std::int64_t h_hi,
         std::int64_t w_lo, std::int64_t w_hi) {
        return WindowMax(plane, in_w, h_lo, h_hi, w_lo, w_hi);
      });
}

void AvgPool2DF32(const NDArray& input, NDArray& output, const Pool2DParams& p) {
  TNP_KERNEL_SPAN("AvgPool2DF32");
  const std::int64_t full_area = p.kernel_h * p.kernel_w;
  PoolImpl<float>(input, output, p,
                  [&](const float* plane, std::int64_t in_w, std::int64_t h_lo, std::int64_t h_hi,
                      std::int64_t w_lo, std::int64_t w_hi) {
                    double acc = 0.0;
                    for (std::int64_t h = h_lo; h < h_hi; ++h) {
                      for (std::int64_t w = w_lo; w < w_hi; ++w) acc += plane[h * in_w + w];
                    }
                    const std::int64_t count =
                        p.count_include_pad ? full_area : (h_hi - h_lo) * (w_hi - w_lo);
                    return static_cast<float>(acc / static_cast<double>(std::max<std::int64_t>(1, count)));
                  });
}

void AvgPool2DS8(const NDArray& input, NDArray& output, const Pool2DParams& p) {
  TNP_KERNEL_SPAN("AvgPool2DS8");
  const std::int64_t full_area = p.kernel_h * p.kernel_w;
  PoolImpl<std::int8_t>(
      input, output, p,
      [&](const std::int8_t* plane, std::int64_t in_w, std::int64_t h_lo, std::int64_t h_hi,
          std::int64_t w_lo, std::int64_t w_hi) {
        std::int64_t acc = 0;
        for (std::int64_t h = h_lo; h < h_hi; ++h) {
          for (std::int64_t w = w_lo; w < w_hi; ++w) acc += plane[h * in_w + w];
        }
        const std::int64_t count =
            p.count_include_pad ? full_area : (h_hi - h_lo) * (w_hi - w_lo);
        const double mean = static_cast<double>(acc) / static_cast<double>(std::max<std::int64_t>(1, count));
        return static_cast<std::int8_t>(
            std::clamp(std::nearbyint(mean), -128.0, 127.0));
      });
}

void GlobalAvgPool2DF32(const NDArray& input, NDArray& output) {
  TNP_KERNEL_SPAN("GlobalAvgPool2DF32");
  TNP_CHECK_EQ(input.shape().rank(), 4);
  const std::array<std::int64_t, 4> expected{input.shape()[0], input.shape()[1], 1, 1};
  TNP_CHECK(ShapeIs(output.shape(), expected));
  const std::int64_t planes = input.shape()[0] * input.shape()[1];
  const std::int64_t area = input.shape()[2] * input.shape()[3];
  const float* in_data = input.Data<float>();
  float* out_data = output.Data<float>();
  support::ParallelFor(0, planes, [&](std::int64_t nc) {
    double acc = 0.0;
    const float* plane = in_data + nc * area;
    for (std::int64_t i = 0; i < area; ++i) acc += plane[i];
    out_data[nc] = static_cast<float>(acc / static_cast<double>(area));
  }, /*grain_size=*/4);
}

void GlobalAvgPool2DS8(const NDArray& input, NDArray& output) {
  TNP_KERNEL_SPAN("GlobalAvgPool2DS8");
  TNP_CHECK_EQ(input.shape().rank(), 4);
  const std::array<std::int64_t, 4> expected{input.shape()[0], input.shape()[1], 1, 1};
  TNP_CHECK(ShapeIs(output.shape(), expected));
  const std::int64_t planes = input.shape()[0] * input.shape()[1];
  const std::int64_t area = input.shape()[2] * input.shape()[3];
  const std::int8_t* in_data = input.Data<std::int8_t>();
  std::int8_t* out_data = output.Data<std::int8_t>();
  support::ParallelFor(0, planes, [&](std::int64_t nc) {
    std::int64_t acc = 0;
    const std::int8_t* plane = in_data + nc * area;
    for (std::int64_t i = 0; i < area; ++i) acc += plane[i];
    const double mean = static_cast<double>(acc) / static_cast<double>(area);
    out_data[nc] = static_cast<std::int8_t>(std::clamp(std::nearbyint(mean), -128.0, 127.0));
  }, /*grain_size=*/4);
}

}  // namespace kernels
}  // namespace tnp
