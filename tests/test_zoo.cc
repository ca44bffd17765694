// Model zoo: every model emits + imports, structure matches the paper's
// Table 1, partition behaviour matches the support analysis, weights are
// deterministic.
#include <gtest/gtest.h>

#include "core/flows.h"
#include "relay/visitor.h"
#include "zoo/zoo.h"

namespace tnp {
namespace zoo {
namespace {

/// Small build options per model (fast numerics; topology preserved).
ZooOptions SmallOptions(const std::string& name) {
  ZooOptions options;
  options.image_size = 32;
  options.width = 0.25;
  options.depth = 0.3;
  if (name == "emotion_cnn") options.image_size = 48;
  if (name == "yolov3_tiny" || name == "yolov3" || name == "nasnet") options.image_size = 64;
  return options;
}

TEST(Zoo, RegistryMatchesPaperTable1) {
  // Table 1 lists the wider evaluation models with their data types.
  const std::pair<const char*, DType> expected[] = {
      {"densenet", DType::kFloat32},
      {"inception_resnet_v2", DType::kFloat32},
      {"inception_v3", DType::kFloat32},
      {"inception_v4", DType::kFloat32},
      {"mobilenet_v1", DType::kFloat32},
      {"mobilenet_v2", DType::kFloat32},
      {"nasnet", DType::kFloat32},
      {"inception_v3_quant", DType::kInt8},
      {"mobilenet_v1_quant", DType::kInt8},
      {"mobilenet_v2_quant", DType::kInt8},
  };
  for (const auto& [name, dtype] : expected) {
    const ModelInfo& info = Info(name);
    EXPECT_EQ(info.data_type, dtype) << name;
  }
  EXPECT_THROW(Info("resnet50"), Error);
}

TEST(Zoo, ShowcaseModelsComeFromThreeFrameworks) {
  EXPECT_EQ(Info("deepixbis").framework, "pytorch");
  EXPECT_EQ(Info("emotion_cnn").framework, "keras");
  EXPECT_EQ(Info("mobilenet_ssd_quant").framework, "tflite");
  EXPECT_EQ(Info("yolov3_tiny").framework, "darknet");
  EXPECT_EQ(Info("densenet").framework, "onnx");
}

class ZooBuildSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooBuildSweep, EmitsParsesAndTypechecks) {
  const std::string& name = GetParam();
  const std::string source = EmitSource(name, SmallOptions(name));
  EXPECT_GT(source.size(), 100u);
  const relay::Module module = Build(name, SmallOptions(name));
  EXPECT_TRUE(module.main()->checked_type().defined());
  EXPECT_GT(relay::CountCalls(module.main()->body()), 5);
}

TEST_P(ZooBuildSweep, TvmOnlyAndByocAgree) {
  const std::string& name = GetParam();
  const ZooOptions options = SmallOptions(name);
  const relay::Module module = Build(name, options);
  const auto tvm = core::CompileFlow(module, core::FlowKind::kTvmOnly);
  const auto byoc = core::CompileFlow(module, core::FlowKind::kByocCpuApu);

  const int channels = name == "emotion_cnn" ? 1 : 3;
  NDArray input = NDArray::RandomNormal(
      Shape({1, channels, options.image_size, options.image_size}), 99, 0.4f);
  for (const char* input_name : {"input", "x", "data", "t0"}) {
    try {
      tvm->SetInput(input_name, input);
      byoc->SetInput(input_name, input);
      break;
    } catch (const Error&) {
      continue;
    }
  }
  tvm->Run();
  byoc->Run();
  ASSERT_EQ(tvm->NumOutputs(), byoc->NumOutputs());
  for (int i = 0; i < tvm->NumOutputs(); ++i) {
    EXPECT_TRUE(NDArray::BitEqual(tvm->GetOutput(i), byoc->GetOutput(i)))
        << name << " output " << i;
  }
  // BYOC with both devices never loses to TVM-only in simulated time.
  EXPECT_LT(byoc->EstimateLatency().total_us(), tvm->EstimateLatency().total_us()) << name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooBuildSweep, ::testing::Values(
    "emotion_cnn", "mobilenet_v1", "mobilenet_v2", "deepixbis", "inception_resnet_v2",
    "densenet", "inception_v3", "inception_v4", "nasnet", "yolov3_tiny",
    "mobilenet_v1_quant", "mobilenet_v2_quant", "inception_v3_quant", "mobilenet_ssd",
    "mobilenet_ssd_quant", "resnet18", "yolov3"));

TEST(Zoo, NpOnlySupportMatchesDesign) {
  // Fully Neuron-mappable models compile NP-only; models with sigmoid /
  // leaky_relu / strided_slice do not (the paper's missing bars).
  const char* supported[] = {"mobilenet_v1", "mobilenet_v2", "densenet", "inception_v3",
                             "inception_v4", "inception_resnet_v2", "emotion_cnn",
                             "mobilenet_v1_quant", "mobilenet_v2_quant", "inception_v3_quant",
                             "resnet18"};
  const char* unsupported[] = {"deepixbis", "nasnet", "yolov3_tiny", "yolov3",
                               "mobilenet_ssd", "mobilenet_ssd_quant"};
  for (const char* name : supported) {
    std::string error;
    EXPECT_NE(core::TryCompileFlow(Build(name, SmallOptions(name)), core::FlowKind::kNpCpu,
                                   &error),
              nullptr)
        << name << ": " << error;
  }
  for (const char* name : unsupported) {
    std::string error;
    EXPECT_EQ(core::TryCompileFlow(Build(name, SmallOptions(name)), core::FlowKind::kNpCpu,
                                   &error),
              nullptr)
        << name;
  }
}

TEST(Zoo, AntiSpoofingHasManySubgraphs) {
  // Section 5.1: "the inference time of the anti-spoofing model is longer
  // ... caused by the large number of subgraphs in the model".
  const auto deepix = core::CompileFlow(Build("deepixbis", SmallOptions("deepixbis")),
                                        core::FlowKind::kByocCpuApu);
  const auto mobilenet = core::CompileFlow(Build("mobilenet_v1", SmallOptions("mobilenet_v1")),
                                           core::FlowKind::kByocCpuApu);
  EXPECT_GT(deepix->NumPartitions(), mobilenet->NumPartitions());
  EXPECT_GE(deepix->NumPartitions(), 3);
}

TEST(Zoo, EmittedSourceDeterministic) {
  const ZooOptions options = SmallOptions("mobilenet_v2");
  EXPECT_EQ(EmitSource("mobilenet_v2", options), EmitSource("mobilenet_v2", options));
  ZooOptions different = options;
  different.seed = 999;
  EXPECT_NE(EmitSource("mobilenet_v2", options), EmitSource("mobilenet_v2", different));
}

TEST(Zoo, WidthScalesChannels) {
  ZooOptions narrow = SmallOptions("mobilenet_v1");
  ZooOptions wide = narrow;
  wide.width = 0.5;
  const relay::Module a = Build("mobilenet_v1", narrow);
  const relay::Module b = Build("mobilenet_v1", wide);
  // Wider model has more MACs -> higher simulated latency.
  EXPECT_LT(core::CompileFlow(a, core::FlowKind::kTvmOnly)->EstimateLatency().total_us(),
            core::CompileFlow(b, core::FlowKind::kTvmOnly)->EstimateLatency().total_us());
}

TEST(Zoo, CanonicalShapesTypecheck) {
  // Full-size models typecheck (no numerics executed here).
  for (const char* name : {"mobilenet_v1", "inception_v3", "mobilenet_ssd_quant"}) {
    ZooOptions options;  // canonical size, full width
    options.depth = 0.3;  // keep emit time reasonable
    const relay::Module module = Build(name, options);
    EXPECT_TRUE(module.main()->checked_type().defined()) << name;
  }
}

TEST(Zoo, SsdProducesBoxAndScoreOutputs) {
  const relay::Module module = Build("mobilenet_ssd_quant", SmallOptions("mobilenet_ssd_quant"));
  ASSERT_TRUE(module.main()->checked_type().IsTuple());
  EXPECT_EQ(module.main()->checked_type().AsTuple().size(), 2u);
}

TEST(Zoo, YoloHasTwoHeads) {
  const relay::Module module = Build("yolov3_tiny", SmallOptions("yolov3_tiny"));
  ASSERT_TRUE(module.main()->checked_type().IsTuple());
  EXPECT_EQ(module.main()->checked_type().AsTuple().size(), 2u);
}

TEST(Zoo, FullYoloHasThreeHeads) {
  const relay::Module module = Build("yolov3", SmallOptions("yolov3"));
  ASSERT_TRUE(module.main()->checked_type().IsTuple());
  const auto& heads = module.main()->checked_type().AsTuple();
  ASSERT_EQ(heads.size(), 3u);
  // Strides 32 / 16 / 8 on a 64px input: 2x2, 4x4, 8x8 feature maps.
  EXPECT_EQ(heads[0].AsTensor().shape[2], 2);
  EXPECT_EQ(heads[1].AsTensor().shape[2], 4);
  EXPECT_EQ(heads[2].AsTensor().shape[2], 8);
}

}  // namespace
}  // namespace zoo
}  // namespace tnp
