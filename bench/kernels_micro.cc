// Google-benchmark microbenchmarks of the real CPU kernels (wall-clock
// time, unlike the simulated-latency harnesses). Useful for validating that
// the host kernels behind the numerics are not pathological.
#include <benchmark/benchmark.h>

#include <iterator>
#include <string>
#include <vector>

#include "kernels/conv.h"
#include "kernels/dense.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/quantize.h"
#include "support/hash.h"
#include "support/thread_pool.h"
#include "tune/tuner.h"

namespace {

using namespace tnp;
using namespace tnp::kernels;

void BM_Conv2DF32(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  NDArray input = NDArray::RandomNormal(Shape({1, channels, 28, 28}), 1);
  NDArray weight = NDArray::RandomNormal(Shape({channels, channels, 3, 3}), 2);
  NDArray bias = NDArray::RandomNormal(Shape({channels}), 3);
  Conv2DParams p;
  p.pad_h = p.pad_w = 1;
  NDArray out = NDArray::Empty(Conv2DOutShape(input.shape(), weight.shape(), p),
                               DType::kFloat32);
  for (auto _ : state) {
    Conv2DF32(input, weight, bias, out, p);
    benchmark::DoNotOptimize(out.RawData());
  }
  state.SetItemsProcessed(state.iterations() * out.NumElements() * channels * 9);
}
BENCHMARK(BM_Conv2DF32)->Arg(16)->Arg(32)->Arg(64);

void BM_QConv2DS8(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  NDArray input = NDArray::RandomInt8(Shape({1, channels, 28, 28}), 1);
  NDArray weight = NDArray::RandomInt8(Shape({channels, channels, 3, 3}), 2);
  NDArray bias = NDArray::Zeros(Shape({channels}), DType::kInt32);
  Conv2DParams p;
  p.pad_h = p.pad_w = 1;
  NDArray out = NDArray::Empty(Conv2DOutShape(input.shape(), weight.shape(), p), DType::kInt8);
  const QuantParams q(0.05f, 0);
  for (auto _ : state) {
    QConv2DS8(input, weight, bias, out, p, q, q, QuantParams(0.2f, 0));
    benchmark::DoNotOptimize(out.RawData());
  }
  state.SetItemsProcessed(state.iterations() * out.NumElements() * channels * 9);
}
BENCHMARK(BM_QConv2DS8)->Arg(16)->Arg(32);

void BM_DepthwiseConv(benchmark::State& state) {
  const std::int64_t channels = 64;
  NDArray input = NDArray::RandomNormal(Shape({1, channels, 28, 28}), 1);
  NDArray weight = NDArray::RandomNormal(Shape({channels, 1, 3, 3}), 2);
  Conv2DParams p;
  p.pad_h = p.pad_w = 1;
  p.groups = channels;
  NDArray out = NDArray::Empty(Conv2DOutShape(input.shape(), weight.shape(), p),
                               DType::kFloat32);
  for (auto _ : state) {
    Conv2DF32(input, weight, NDArray(), out, p);
    benchmark::DoNotOptimize(out.RawData());
  }
}
BENCHMARK(BM_DepthwiseConv);

void BM_DenseF32(benchmark::State& state) {
  const std::int64_t k = state.range(0);
  NDArray input = NDArray::RandomNormal(Shape({1, k}), 1);
  NDArray weight = NDArray::RandomNormal(Shape({1000, k}), 2);
  NDArray bias = NDArray::RandomNormal(Shape({1000}), 3);
  NDArray out = NDArray::Empty(Shape({1, 1000}), DType::kFloat32);
  for (auto _ : state) {
    DenseF32(input, weight, bias, out);
    benchmark::DoNotOptimize(out.RawData());
  }
}
BENCHMARK(BM_DenseF32)->Arg(512)->Arg(2048);

void BM_Softmax(benchmark::State& state) {
  NDArray input = NDArray::RandomNormal(Shape({8, 1000}), 1);
  NDArray out = NDArray::Empty(input.shape(), DType::kFloat32);
  for (auto _ : state) {
    SoftmaxF32(input, out, -1);
    benchmark::DoNotOptimize(out.RawData());
  }
}
BENCHMARK(BM_Softmax);

void BM_QuantizeRoundTrip(benchmark::State& state) {
  NDArray real = NDArray::RandomNormal(Shape({1 << 16}), 1);
  NDArray quantized = NDArray::Empty(real.shape(), DType::kInt8);
  NDArray back = NDArray::Empty(real.shape(), DType::kFloat32);
  const QuantParams q(0.05f, 0);
  for (auto _ : state) {
    QuantizeF32ToS8(real, quantized, q);
    DequantizeS8ToF32(quantized, back, q);
    benchmark::DoNotOptimize(back.RawData());
  }
  state.SetBytesProcessed(state.iterations() * real.SizeBytes() * 2);
}
BENCHMARK(BM_QuantizeRoundTrip);

// Thread-scaling benchmarks: the same kernel run on isolated pools of fixed
// size (ScopedPool routes the kernels' ParallelFor there), so `--threads`
// scaling is measurable regardless of the machine's TNP_NUM_THREADS.

void BM_GemmF32Threads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  support::ThreadPool pool(
      threads, {/*queue_capacity=*/256, /*max_spares=*/8,
                "bench_gemm_pool_" + std::to_string(threads)});
  support::ScopedPool scope(pool);
  const std::int64_t m = 256;
  NDArray input = NDArray::RandomNormal(Shape({m, 256}), 1);
  NDArray weight = NDArray::RandomNormal(Shape({256, 256}), 2);
  NDArray out = NDArray::Empty(Shape({m, 256}), DType::kFloat32);
  for (auto _ : state) {
    DenseF32(input, weight, NDArray(), out);
    benchmark::DoNotOptimize(out.RawData());
  }
  state.SetItemsProcessed(state.iterations() * m * 256 * 256 * 2);
}
BENCHMARK(BM_GemmF32Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Conv2DF32Threads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  support::ThreadPool pool(
      threads, {/*queue_capacity=*/256, /*max_spares=*/8,
                "bench_conv_pool_" + std::to_string(threads)});
  support::ScopedPool scope(pool);
  const std::int64_t channels = 64;
  NDArray input = NDArray::RandomNormal(Shape({1, channels, 28, 28}), 1);
  NDArray weight = NDArray::RandomNormal(Shape({channels, channels, 3, 3}), 2);
  NDArray bias = NDArray::RandomNormal(Shape({channels}), 3);
  Conv2DParams p;
  p.pad_h = p.pad_w = 1;
  NDArray out = NDArray::Empty(Conv2DOutShape(input.shape(), weight.shape(), p),
                               DType::kFloat32);
  for (auto _ : state) {
    Conv2DF32(input, weight, bias, out, p);
    benchmark::DoNotOptimize(out.RawData());
  }
  state.SetItemsProcessed(state.iterations() * out.NumElements() * channels * 9);
}
BENCHMARK(BM_Conv2DF32Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Tuned-vs-fixed GEMM on real model-zoo shapes: each shape runs the packed
// f32 core twice, once at the fixed default config (4x8/kc256/nc192) and
// once at the config the auto-tuner picks on this machine (tuned lazily,
// memoized across iterations). Compare the paired rows for the per-shape
// tuning win; EXPERIMENTS.md records a reference run.
struct ZooGemmShape {
  const char* label;
  std::int64_t m, k, n;
};

constexpr ZooGemmShape kZooGemmShapes[] = {
    {"mobilenet_v1_pw1", 64, 32, 12544},   // early pointwise conv
    {"mobilenet_v1_pw11", 512, 256, 196},  // late pointwise conv
    {"mobilenet_v1_fc", 1, 1024, 1000},    // classifier dense (GEMV-shaped)
    {"emotion_cnn_conv2", 64, 288, 1936},  // showcase-model 3x3 conv
};

const GemmConfig& TunedConfigForShape(int index) {
  static GemmConfig cache[std::size(kZooGemmShapes)];
  static bool ready[std::size(kZooGemmShapes)] = {};
  if (!ready[index]) {
    tune::Workload workload;
    workload.op = "conv2d";
    workload.m = kZooGemmShapes[index].m;
    workload.k = kZooGemmShapes[index].k;
    workload.n = kZooGemmShapes[index].n;
    tune::TuneOptions options;
    options.budget_ms = 4000.0;
    options.repetitions = 3;
    cache[index] =
        tune::TuneWorkload(workload, options, options.budget_ms * 1000.0).record.config;
    ready[index] = true;
  }
  return cache[index];
}

void BM_GemmZooShapeF32(benchmark::State& state) {
  const int index = static_cast<int>(state.range(0));
  const bool tuned = state.range(1) != 0;
  const ZooGemmShape& shape = kZooGemmShapes[index];
  const GemmConfig config =
      tuned ? TunedConfigForShape(index) : GemmConfig::DefaultF32();
  NDArray a = NDArray::RandomNormal(Shape({shape.m, shape.k}), 1);
  NDArray b = NDArray::RandomNormal(Shape({shape.k, shape.n}), 2);
  std::vector<float> ap(
      static_cast<std::size_t>(PackedExtent(shape.m, config.mr) * shape.k));
  std::vector<float> bp(
      static_cast<std::size_t>(PackedExtent(shape.n, config.nr) * shape.k));
  PackPanelsAF32(a.Data<float>(), shape.m, shape.k, shape.k, ap.data(), config.mr);
  PackPanelsBF32(b.Data<float>(), shape.k, shape.n, shape.n, bp.data(), config.nr);
  std::vector<float> c(static_cast<std::size_t>(shape.m * shape.n));
  for (auto _ : state) {
    GemmPackedF32(ap.data(), bp.data(), c.data(), shape.m, shape.k, shape.n,
                  shape.n, /*parallel=*/false, config);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(std::string(shape.label) + "/" +
                 (tuned ? "tuned:" + config.ToString() : "fixed:" + config.ToString()));
  state.SetItemsProcessed(state.iterations() * shape.m * shape.k * shape.n * 2);
}
BENCHMARK(BM_GemmZooShapeF32)
    ->Args({0, 0})->Args({0, 1})
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1})
    ->Args({3, 0})->Args({3, 1});

void BM_BroadcastAdd(benchmark::State& state) {
  NDArray a = NDArray::RandomNormal(Shape({1, 64, 56, 56}), 1);
  NDArray b = NDArray::RandomNormal(Shape({1, 64, 1, 1}), 2);
  NDArray out = NDArray::Empty(a.shape(), DType::kFloat32);
  for (auto _ : state) {
    BroadcastBinaryF32(BinaryOp::kAdd, a, b, out);
    benchmark::DoNotOptimize(out.RawData());
  }
}
BENCHMARK(BM_BroadcastAdd);

/// Artifact section checksum throughput (support::Hash64 over `range(0)`
/// bytes): 4 KiB stays in L1, 16 MiB is the size of a mapped zoo artifact.
void BM_Hash64(benchmark::State& state) {
  std::vector<unsigned char> bytes(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<unsigned char>(i * 131);
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::Hash64(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Hash64)->Arg(4 << 10)->Arg(16 << 20);

}  // namespace

BENCHMARK_MAIN();
