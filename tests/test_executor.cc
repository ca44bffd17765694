// relay::Build + GraphExecutor: lowering, execution, outputs, simulated
// latency accounting, fusion ablation.
#include <gtest/gtest.h>

#include "frontend/common.h"
#include "relay/build.h"
#include "relay/pass.h"

namespace tnp {
namespace relay {
namespace {

using frontend::TypedCall;
using frontend::TypedVar;
using frontend::WeightF32;
using frontend::ZeroBiasF32;

Module ConvReluModule() {
  auto x = TypedVar("data", Shape({1, 3, 8, 8}), DType::kFloat32);
  auto conv = TypedCall("nn.conv2d", {x, WeightF32(Shape({4, 3, 3, 3}), 1), ZeroBiasF32(4)},
                        Attrs().SetInts("padding", {1, 1}));
  auto relu = TypedCall("nn.relu", {conv});
  return Module(MakeFunction({x}, relu));
}

TEST(Build, ProducesExecutableProgram) {
  const CompiledModulePtr compiled = Build(ConvReluModule());
  EXPECT_GT(compiled->instructions.size(), 0u);
  EXPECT_EQ(compiled->num_outputs, 1);
  EXPECT_EQ(compiled->input_slots.count("data"), 1u);
  EXPECT_GT(compiled->TotalMacs(), 0);
}

TEST(Executor, RunsAndProducesOutput) {
  GraphExecutor exec(Build(ConvReluModule()));
  exec.SetInput("data", NDArray::RandomNormal(Shape({1, 3, 8, 8}), 5));
  exec.Run();
  const NDArray out = exec.GetOutput(0);
  EXPECT_EQ(out.shape(), Shape({1, 4, 8, 8}));
  for (float v : out.Span<float>()) EXPECT_GE(v, 0.0f);  // relu output
}

TEST(Executor, UnknownInputThrows) {
  GraphExecutor exec(Build(ConvReluModule()));
  EXPECT_THROW(exec.SetInput("nope", NDArray::Zeros(Shape({1}), DType::kFloat32)), Error);
}

TEST(Executor, OutputIndexRangeChecked) {
  GraphExecutor exec(Build(ConvReluModule()));
  exec.SetInput("data", NDArray::Zeros(Shape({1, 3, 8, 8}), DType::kFloat32));
  exec.Run();
  EXPECT_THROW(exec.GetOutput(1), InternalError);
}

TEST(Executor, TupleOutputs) {
  auto x = TypedVar("data", Shape({1, 4}), DType::kFloat32);
  auto relu = TypedCall("nn.relu", {x});
  auto tanh_e = TypedCall("tanh", {x});
  Module module(MakeFunction({x}, MakeTuple({relu, tanh_e})));
  GraphExecutor exec(Build(module));
  EXPECT_EQ(exec.NumOutputs(), 2);
  exec.SetInput("data", NDArray::FromVector<float>(Shape({1, 4}), {-1, 0, 1, 2}));
  exec.Run();
  EXPECT_FLOAT_EQ(exec.GetOutput(0).Data<float>()[0], 0.0f);
  EXPECT_NEAR(exec.GetOutput(1).Data<float>()[3], std::tanh(2.0f), 1e-6);
}

TEST(Executor, MultipleInputs) {
  auto a = TypedVar("a", Shape({1, 4}), DType::kFloat32);
  auto b = TypedVar("b", Shape({1, 4}), DType::kFloat32);
  Module module(MakeFunction({a, b}, TypedCall("add", {a, b})));
  GraphExecutor exec(Build(module));
  exec.SetInput("a", NDArray::Full(Shape({1, 4}), DType::kFloat32, 1.0));
  exec.SetInput("b", NDArray::Full(Shape({1, 4}), DType::kFloat32, 2.0));
  exec.Run();
  EXPECT_FLOAT_EQ(exec.GetOutput(0).Data<float>()[0], 3.0f);
}

TEST(Executor, SimClockAccountsOps) {
  // The estimate is analytic and static: it needs no run.
  const sim::SimClock clock = Build(ConvReluModule())->EstimateLatency();
  EXPECT_GT(clock.total_us(), 0.0);
  EXPECT_GT(clock.num_ops(), 0);
  EXPECT_EQ(clock.per_device_us().count(sim::DeviceKind::kTvmCpu), 1u);
}

TEST(Build, FusionReducesSimulatedLatency) {
  const Module module = ConvReluModule();
  BuildOptions fused;
  fused.enable_fusion = true;
  BuildOptions unfused;
  unfused.enable_fusion = false;
  const double fused_us = Build(module, fused)->EstimateLatency().total_us();
  const double unfused_us = Build(module, unfused)->EstimateLatency().total_us();
  EXPECT_LT(fused_us, unfused_us);  // one launch overhead instead of two
}

TEST(Build, FusionPreservesNumerics) {
  const Module module = ConvReluModule();
  NDArray input = NDArray::RandomNormal(Shape({1, 3, 8, 8}), 11);
  BuildOptions fused;
  BuildOptions unfused;
  unfused.enable_fusion = false;
  GraphExecutor a(Build(module, fused));
  GraphExecutor b(Build(module, unfused));
  a.SetInput("data", input);
  b.SetInput("data", input);
  a.Run();
  b.Run();
  EXPECT_TRUE(NDArray::BitEqual(a.GetOutput(0), b.GetOutput(0)));
}

TEST(Build, HostDeviceAffectsLatency) {
  const Module module = ConvReluModule();
  BuildOptions tvm;
  tvm.host_device = sim::DeviceKind::kTvmCpu;
  BuildOptions np;
  np.host_device = sim::DeviceKind::kNeuronCpu;
  // The NeuroPilot-tuned CPU is faster than the TVM-kernel CPU for the same
  // program (the paper's central observation).
  EXPECT_LT(Build(module, np)->EstimateLatency().total_us(),
            Build(module, tvm)->EstimateLatency().total_us());
}

TEST(Build, ProfileCoversAllOps) {
  const CompiledModulePtr compiled = Build(ConvReluModule());
  const auto profile = compiled->Profile();
  ASSERT_FALSE(profile.empty());
  double total = 0.0;
  std::int64_t macs = 0;
  for (const auto& entry : profile) {
    EXPECT_GT(entry.us, 0.0);
    total += entry.us;
    macs += entry.macs;
  }
  // The per-op profile sums exactly to the static latency estimate (no
  // transfers in a host-only program).
  EXPECT_NEAR(total, compiled->EstimateLatency().total_us(), 1e-6);
  EXPECT_EQ(macs, compiled->TotalMacs());
}

TEST(Build, GlobalCallToMissingExternalThrows) {
  auto x = TypedVar("x", Shape({1, 4}), DType::kFloat32);
  Module module(MakeFunction({x}, MakeGlobalCall("nowhere", {x})));
  EXPECT_THROW(Build(module), Error);
}

TEST(CostModel, ApuFasterForLargeConvs) {
  const sim::CostModel cost(sim::Testbed::Dimensity800());
  sim::OpDesc big_conv;
  big_conv.category = sim::OpCategory::kConv;
  big_conv.macs = 500'000'000;
  big_conv.input_bytes = 1 << 20;
  big_conv.output_bytes = 1 << 20;
  EXPECT_LT(cost.OpMicros(big_conv, sim::DeviceKind::kNeuronApu),
            cost.OpMicros(big_conv, sim::DeviceKind::kNeuronCpu));
  EXPECT_LT(cost.OpMicros(big_conv, sim::DeviceKind::kNeuronCpu),
            cost.OpMicros(big_conv, sim::DeviceKind::kTvmCpu));
}

TEST(CostModel, TinyOpsPreferCpuOverApu) {
  const sim::CostModel cost(sim::Testbed::Dimensity800());
  sim::OpDesc tiny;
  tiny.category = sim::OpCategory::kConv;
  tiny.macs = 10'000;
  tiny.input_bytes = 4096;
  tiny.output_bytes = 4096;
  // Launch overhead + utilization ramp make the APU slower on tiny layers.
  EXPECT_LT(cost.OpMicros(tiny, sim::DeviceKind::kNeuronCpu),
            cost.OpMicros(tiny, sim::DeviceKind::kNeuronApu));
}

TEST(CostModel, Int8BeatsFloatOnApu) {
  const sim::CostModel cost(sim::Testbed::Dimensity800());
  sim::OpDesc conv;
  conv.category = sim::OpCategory::kConv;
  conv.macs = 100'000'000;
  sim::OpDesc qconv = conv;
  qconv.int8 = true;
  EXPECT_LT(cost.OpMicros(qconv, sim::DeviceKind::kNeuronApu),
            cost.OpMicros(conv, sim::DeviceKind::kNeuronApu));
}

TEST(CostModel, TransferFreeWithinResource) {
  const sim::CostModel cost(sim::Testbed::Dimensity800());
  EXPECT_EQ(cost.TransferMicros(1 << 20, sim::DeviceKind::kTvmCpu,
                                sim::DeviceKind::kNeuronCpu),
            0.0);
  EXPECT_GT(cost.TransferMicros(1 << 20, sim::DeviceKind::kNeuronCpu,
                                sim::DeviceKind::kNeuronApu),
            0.0);
}

}  // namespace
}  // namespace relay
}  // namespace tnp
