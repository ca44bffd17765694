// Simulated NeuroPilot stack: Neuron IR validation, Execution Planner
// policies, runtime numerics and time accounting.
#include <gtest/gtest.h>

#include "core/relay_to_neuron.h"
#include "frontend/common.h"
#include "neuron/runtime.h"
#include "relay/interpreter.h"
#include "relay/pass.h"

namespace tnp {
namespace neuron {
namespace {

using sim::DeviceKind;

/// Small valid model: conv -> relu.
NeuronModel ConvReluModel(std::int64_t channels = 4, std::int64_t hw = 8) {
  NeuronModel model;
  Operand input;
  input.name = "in";
  input.shape = Shape({1, 3, hw, hw});
  input.kind = OperandKind::kInput;
  const OperandId in_id = model.AddOperand(input);
  const OperandId w_id =
      model.AddConstant("w", NDArray::RandomNormal(Shape({channels, 3, 3, 3}), 3));
  Operand conv_out;
  conv_out.shape = Shape({1, channels, hw, hw});
  const OperandId conv_id = model.AddOperand(conv_out);
  Operand relu_out = conv_out;
  const OperandId relu_id = model.AddOperand(relu_out);

  Operation conv;
  conv.type = NeuronOpType::kConv2d;
  conv.attrs.padding = {1, 1};
  conv.inputs = {in_id, w_id};
  conv.outputs = {conv_id};
  model.AddOperation(conv);

  Operation relu;
  relu.type = NeuronOpType::kRelu;
  relu.inputs = {conv_id};
  relu.outputs = {relu_id};
  model.AddOperation(relu);

  model.SetModelInputs({in_id});
  model.SetModelOutputs({relu_id});
  return model;
}

TEST(NeuronIr, ValidModelValidates) { EXPECT_NO_THROW(ConvReluModel().Validate()); }

TEST(NeuronIr, OutOfOrderOperationsRejected) {
  NeuronModel model;
  Operand input;
  input.shape = Shape({1, 4});
  input.kind = OperandKind::kInput;
  const OperandId in_id = model.AddOperand(input);
  Operand mid;
  mid.shape = Shape({1, 4});
  const OperandId mid_id = model.AddOperand(mid);
  Operand out;
  out.shape = Shape({1, 4});
  const OperandId out_id = model.AddOperand(out);

  // Second op (producing mid) listed after the op that consumes it.
  Operation second;
  second.type = NeuronOpType::kRelu;
  second.inputs = {mid_id};
  second.outputs = {out_id};
  model.AddOperation(second);
  Operation first;
  first.type = NeuronOpType::kRelu;
  first.inputs = {in_id};
  first.outputs = {mid_id};
  model.AddOperation(first);

  model.SetModelInputs({in_id});
  model.SetModelOutputs({out_id});
  EXPECT_THROW(model.Validate(), Error);
}

TEST(NeuronIr, DoubleProductionRejected) {
  NeuronModel model;
  Operand input;
  input.shape = Shape({1, 4});
  input.kind = OperandKind::kInput;
  const OperandId in_id = model.AddOperand(input);
  Operand out;
  out.shape = Shape({1, 4});
  const OperandId out_id = model.AddOperand(out);
  for (int i = 0; i < 2; ++i) {
    Operation op;
    op.type = NeuronOpType::kRelu;
    op.inputs = {in_id};
    op.outputs = {out_id};
    model.AddOperation(op);
  }
  model.SetModelInputs({in_id});
  model.SetModelOutputs({out_id});
  EXPECT_THROW(model.Validate(), Error);
}

TEST(NeuronIr, ConstantWithoutDataRejected) {
  NeuronModel model;
  Operand c;
  c.shape = Shape({4});
  c.kind = OperandKind::kConstant;  // no data
  const OperandId c_id = model.AddOperand(c);
  model.SetModelOutputs({c_id});
  EXPECT_THROW(model.Validate(), Error);
}

TEST(NeuronIr, ToStringListsOps) {
  const std::string text = ConvReluModel().ToString();
  EXPECT_NE(text.find("CONV_2D"), std::string::npos);
  EXPECT_NE(text.find("RELU"), std::string::npos);
  EXPECT_NE(text.find("[input]"), std::string::npos);
  EXPECT_NE(text.find("[const]"), std::string::npos);
}

// ---------------------------------------------------------------- support

TEST(SupportMatrix, CpuCoversEverything) {
  for (int t = 0; t <= static_cast<int>(NeuronOpType::kRequantize); ++t) {
    EXPECT_TRUE(DeviceSupports(DeviceKind::kNeuronCpu, static_cast<NeuronOpType>(t)));
  }
}

TEST(SupportMatrix, ApuGaps) {
  EXPECT_TRUE(DeviceSupports(DeviceKind::kNeuronApu, NeuronOpType::kConv2d));
  EXPECT_TRUE(DeviceSupports(DeviceKind::kNeuronApu, NeuronOpType::kSoftmax));
  EXPECT_FALSE(DeviceSupports(DeviceKind::kNeuronApu, NeuronOpType::kSub));
  EXPECT_FALSE(DeviceSupports(DeviceKind::kNeuronApu, NeuronOpType::kPad));
  EXPECT_FALSE(DeviceSupports(DeviceKind::kTvmCpu, NeuronOpType::kConv2d));
}

TEST(TargetConfigTest, Parse) {
  EXPECT_EQ(TargetConfig::FromString("cpu"), TargetConfig::CpuOnly());
  EXPECT_EQ(TargetConfig::FromString("apu"), TargetConfig::ApuOnly());
  EXPECT_EQ(TargetConfig::FromString("cpu,apu"), TargetConfig::CpuApu());
  EXPECT_EQ(TargetConfig::FromString("apu, cpu"), TargetConfig::CpuApu());
  EXPECT_THROW(TargetConfig::FromString("gpu"), Error);
  EXPECT_THROW(TargetConfig::FromString(""), Error);
}

// ---------------------------------------------------------------- planner

TEST(Planner, CpuOnlyPlacesEverythingOnCpu) {
  const auto plan = PlanExecution(ConvReluModel(), TargetConfig::CpuOnly(),
                                  sim::Testbed::Dimensity800());
  for (const DeviceKind d : plan.placement) EXPECT_EQ(d, DeviceKind::kNeuronCpu);
}

TEST(Planner, BigConvGoesToApuUnderCpuApu) {
  // Large conv: APU wins despite the transfer.
  const auto plan = PlanExecution(ConvReluModel(/*channels=*/64, /*hw=*/64),
                                  TargetConfig::CpuApu(), sim::Testbed::Dimensity800());
  EXPECT_EQ(plan.placement[0], DeviceKind::kNeuronApu);
}

TEST(Planner, UnsupportedOpOnApuOnlyThrows) {
  NeuronModel model;
  Operand input;
  input.shape = Shape({1, 4});
  input.kind = OperandKind::kInput;
  const OperandId in_id = model.AddOperand(input);
  Operand out;
  out.shape = Shape({1, 4});
  const OperandId out_id = model.AddOperand(out);
  Operation sub;
  sub.type = NeuronOpType::kSub;  // not APU-supported
  sub.inputs = {in_id, in_id};
  sub.outputs = {out_id};
  model.AddOperation(sub);
  model.SetModelInputs({in_id});
  model.SetModelOutputs({out_id});

  try {
    PlanExecution(model, TargetConfig::ApuOnly(), sim::Testbed::Dimensity800());
    FAIL() << "expected UnsupportedOp";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUnsupportedOp);
  }
  EXPECT_NO_THROW(
      PlanExecution(model, TargetConfig::CpuApu(), sim::Testbed::Dimensity800()));
}

/// Conv -> relu -> global pool: classifier-shaped (small output), where
/// APU offload clearly pays.
NeuronModel ConvReluPoolModel(std::int64_t channels, std::int64_t hw) {
  NeuronModel model = ConvReluModel(channels, hw);
  const OperandId relu_id = model.model_outputs()[0];
  Operand pooled;
  pooled.shape = Shape({1, channels, 1, 1});
  const OperandId pooled_id = model.AddOperand(pooled);
  Operation pool;
  pool.type = NeuronOpType::kGlobalAvgPool2d;
  pool.inputs = {relu_id};
  pool.outputs = {pooled_id};
  model.AddOperation(pool);
  model.SetModelOutputs({pooled_id});
  return model;
}

TEST(Planner, GreedyBeatsFirstDevicePolicy) {
  const NeuronModel model = ConvReluPoolModel(64, 64);
  const auto greedy = PlanExecution(model, TargetConfig::CpuApu(),
                                    sim::Testbed::Dimensity800(), PlannerPolicy::kGreedyCost);
  const auto naive = PlanExecution(model, TargetConfig::CpuApu(),
                                   sim::Testbed::Dimensity800(), PlannerPolicy::kFirstDevice);
  EXPECT_LT(greedy.estimated_us, naive.estimated_us);
}

TEST(Planner, DynamicNeverWorseThanGreedy) {
  for (const auto [channels, hw] : {std::pair<std::int64_t, std::int64_t>{64, 64},
                                    {16, 32},
                                    {4, 8}}) {
    const NeuronModel model = ConvReluPoolModel(channels, hw);
    const auto greedy = PlanExecution(model, TargetConfig::CpuApu(),
                                      sim::Testbed::Dimensity800(),
                                      PlannerPolicy::kGreedyCost);
    const auto dynamic = PlanExecution(model, TargetConfig::CpuApu(),
                                       sim::Testbed::Dimensity800(),
                                       PlannerPolicy::kDynamic);
    EXPECT_LE(dynamic.estimated_us, greedy.estimated_us + 1e-9)
        << "channels=" << channels << " hw=" << hw;
  }
}

TEST(Planner, DynamicFixesGreedyMyopia) {
  // The adversarial case from the greedy analysis: a huge activation output
  // makes APU placement a downstream loss the one-pass greedy cannot see.
  // The refinement sweep must not end up worse than CPU-everything.
  const NeuronModel model = ConvReluModel(64, 64);  // big output, no pool
  const auto dynamic = PlanExecution(model, TargetConfig::CpuApu(),
                                     sim::Testbed::Dimensity800(), PlannerPolicy::kDynamic);
  const auto cpu_only = PlanExecution(model, TargetConfig::CpuOnly(),
                                      sim::Testbed::Dimensity800());
  EXPECT_LE(dynamic.estimated_us, cpu_only.estimated_us + 1e-9);
}

TEST(Planner, DynamicRespectsSupportMatrix) {
  // The refinement must never move an op to a device that cannot run it.
  NeuronModel model = ConvReluModel(16, 16);
  Operation pad;
  pad.type = NeuronOpType::kPad;  // CPU-only op
  pad.attrs.pad_before = {0, 0, 1, 1};
  pad.attrs.pad_after = {0, 0, 1, 1};
  const OperandId in_id = model.model_outputs()[0];
  Operand out;
  out.shape = Shape({1, 16, 18, 18});
  const OperandId out_id = model.AddOperand(out);
  pad.inputs = {in_id};
  pad.outputs = {out_id};
  model.AddOperation(pad);
  model.SetModelOutputs({out_id});

  const auto plan = PlanExecution(model, TargetConfig::CpuApu(),
                                  sim::Testbed::Dimensity800(), PlannerPolicy::kDynamic);
  for (std::size_t i = 0; i < plan.placement.size(); ++i) {
    EXPECT_TRUE(DeviceSupports(plan.placement[i], model.operations()[i].type));
  }
}

TEST(Planner, EstimateMatchesRuntimeAccounting) {
  // EstimatePlanUs and the runtime's clock agree up to the fixed
  // invocation overhead (which only the runtime charges).
  const NeuronCompiler compiler(CompilerOptions{});
  const NeuronPackagePtr package = compiler.Compile(ConvReluModel(16, 16), "t");
  const sim::SimClock clock = EstimateLatency(*package);
  const double estimate =
      EstimatePlanUs(package->model, package->plan.placement, sim::Testbed::Dimensity800());
  EXPECT_NEAR(clock.total_us(), estimate + kInvocationOverheadUs, 1e-6);
}

// ---------------------------------------------------------------- runtime

TEST(Runtime, MatchesRelayInterpreter) {
  // The same conv expressed in Relay and in Neuron IR must agree bitwise
  // (both dispatch to the shared kernels).
  auto x = frontend::TypedVar("x", Shape({1, 3, 8, 8}), DType::kFloat32);
  auto conv = frontend::TypedCall(
      "nn.conv2d",
      {x, frontend::WeightF32(Shape({4, 3, 3, 3}), 77), frontend::ZeroBiasF32(4)},
      relay::Attrs().SetInts("padding", {1, 1}));
  auto relu = frontend::TypedCall("nn.relu", {conv});
  auto fn = relay::MakeFunction({x}, relu);
  relay::InferFunctionTypes(fn);

  core::RelayToNeuronConverter converter;
  NeuronModel model = converter.Convert(fn);
  const NeuronCompiler compiler(CompilerOptions{});
  const NeuronPackagePtr package = compiler.Compile(std::move(model), "t");

  NDArray input = NDArray::RandomNormal(Shape({1, 3, 8, 8}), 5);
  NeuronExecutionSession session(package);
  const NDArray* inputs[] = {&input};
  session.Run(inputs);
  ASSERT_EQ(session.outputs().size(), 1u);

  relay::Environment env;
  env[x.get()] = relay::Value(input);
  const relay::Value expected = relay::EvalExpr(relu, env);
  EXPECT_TRUE(NDArray::BitEqual(*session.outputs()[0], expected.AsTensor()));
}

TEST(Runtime, AccountsInvocationOverhead) {
  const NeuronCompiler compiler(CompilerOptions{});
  const NeuronPackagePtr package = compiler.Compile(ConvReluModel(), "t");
  const sim::SimClock clock = EstimateLatency(*package);
  EXPECT_GE(clock.total_us(), kInvocationOverheadUs);
  EXPECT_GT(clock.num_ops(), 0);
}

TEST(Runtime, ApuPlacementIncursTransfers) {
  CompilerOptions options;
  options.target = TargetConfig::ApuOnly();
  const NeuronCompiler compiler(options);
  const NeuronPackagePtr package = compiler.Compile(ConvReluModel(16, 32), "t");
  const sim::SimClock clock = EstimateLatency(*package);
  // Input upload + output download at minimum.
  EXPECT_GE(clock.num_transfers(), 2);
}

TEST(Runtime, CpuOnlyHasNoDmaTransfers) {
  const NeuronCompiler compiler(CompilerOptions{});
  const NeuronPackagePtr package = compiler.Compile(ConvReluModel(), "t");
  const sim::SimClock clock = EstimateLatency(*package);
  // Only the fixed invocation overhead is recorded as a "transfer" entry.
  EXPECT_EQ(clock.num_transfers(), 1);
}

TEST(Runtime, InputValidation) {
  const NeuronCompiler compiler(CompilerOptions{});
  const NeuronPackagePtr package = compiler.Compile(ConvReluModel(), "t");
  NeuronExecutionSession session(package);
  EXPECT_THROW(session.Run({}), InternalError);  // input count
  const NDArray wrong = NDArray::Zeros(Shape({1, 3, 4, 4}), DType::kFloat32);
  const NDArray* inputs[] = {&wrong};
  EXPECT_THROW(session.Run(inputs), InternalError);  // wrong shape
}

TEST(Runtime, QuantizedPathUsesOperandParams) {
  // quantize -> requantize -> dequantize round trip driven purely by
  // tensor-oriented operand parameters.
  NeuronModel model;
  Operand input;
  input.shape = Shape({1, 8});
  input.kind = OperandKind::kInput;
  const OperandId in_id = model.AddOperand(input);
  Operand q;
  q.shape = Shape({1, 8});
  q.dtype = DType::kInt8;
  q.quant = QuantParams(0.1f, 0);
  const OperandId q_id = model.AddOperand(q);
  Operand rq = q;
  rq.quant = QuantParams(0.05f, 2);
  const OperandId rq_id = model.AddOperand(rq);
  Operand f;
  f.shape = Shape({1, 8});
  const OperandId f_id = model.AddOperand(f);

  Operation quantize;
  quantize.type = NeuronOpType::kQuantize;
  quantize.inputs = {in_id};
  quantize.outputs = {q_id};
  model.AddOperation(quantize);
  Operation requantize;
  requantize.type = NeuronOpType::kRequantize;
  requantize.inputs = {q_id};
  requantize.outputs = {rq_id};
  model.AddOperation(requantize);
  Operation dequantize;
  dequantize.type = NeuronOpType::kDequantize;
  dequantize.inputs = {rq_id};
  dequantize.outputs = {f_id};
  model.AddOperation(dequantize);
  model.SetModelInputs({in_id});
  model.SetModelOutputs({f_id});

  const NeuronCompiler compiler(CompilerOptions{});
  const NeuronPackagePtr package = compiler.Compile(std::move(model), "q");
  NDArray real = NDArray::FromVector<float>(Shape({1, 8}),
                                            {-0.4f, -0.2f, 0.0f, 0.1f, 0.2f, 0.3f, 0.4f, 0.5f});
  NeuronExecutionSession session(package);
  const NDArray* inputs[] = {&real};
  session.Run(inputs);
  const NDArray& output = *session.outputs()[0];
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(output.Data<float>()[i], real.Data<float>()[i], 0.1f);
  }
}

TEST(Package, CountsOpsPerDevice) {
  CompilerOptions options;
  options.target = TargetConfig::CpuApu();
  const NeuronCompiler compiler(options);
  const NeuronPackagePtr package = compiler.Compile(ConvReluModel(64, 64), "t");
  EXPECT_EQ(package->NumOps(), 2);
  EXPECT_EQ(package->NumOpsOn(DeviceKind::kNeuronCpu) +
                package->NumOpsOn(DeviceKind::kNeuronApu),
            2);
}

}  // namespace
}  // namespace neuron
}  // namespace tnp
