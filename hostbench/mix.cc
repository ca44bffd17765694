#include <fstream>

#include "frontend/frontend.h"
#include "support/metrics.h"
#include "workloads.h"
#include "zoo/zoo.h"

namespace hostbench {

using tnp::core::FlowKind;

const char* FlowToken(FlowKind flow) {
  switch (flow) {
    case FlowKind::kTvmOnly: return "tvm";
    case FlowKind::kByocCpu: return "byoc-cpu";
    case FlowKind::kByocApu: return "byoc-apu";
    case FlowKind::kByocCpuApu: return "byoc-cpuapu";
    case FlowKind::kNpCpu: return "np-cpu";
    case FlowKind::kNpApu: return "np-apu";
    case FlowKind::kNpCpuApu: return "np-cpuapu";
  }
  return "?";
}

namespace {
const char* const kMixModels[] = {"emotion_cnn", "mobilenet_v2", "mobilenet_v2_quant",
                                  "resnet18"};
}  // namespace

const std::vector<MixEntry>& ZooMix() {
  static const std::vector<MixEntry> mix = {
      {"emotion_cnn", FlowKind::kTvmOnly},         {"emotion_cnn", FlowKind::kNpApu},
      {"mobilenet_v2", FlowKind::kTvmOnly},        {"mobilenet_v2", FlowKind::kByocCpuApu},
      {"mobilenet_v2", FlowKind::kNpApu},          {"mobilenet_v2_quant", FlowKind::kTvmOnly},
      {"mobilenet_v2_quant", FlowKind::kByocCpuApu}, {"resnet18", FlowKind::kByocCpuApu},
  };
  return mix;
}

std::string EntryKey(const MixEntry& entry) {
  return std::string(entry.model) + "." + FlowToken(entry.flow);
}

std::size_t ModelIndex(const MixEntry& entry) {
  for (std::size_t i = 0; i < std::size(kMixModels); ++i) {
    if (std::string_view(kMixModels[i]) == entry.model) return i;
  }
  TNP_CHECK(false) << "model " << entry.model << " is not in the mix";
  return 0;
}

std::vector<ImportedModel> ImportMix(std::uint64_t seed, double* emit_ms, double* import_ms) {
  std::vector<ImportedModel> models;
  for (std::size_t i = 0; i < std::size(kMixModels); ++i) {
    const tnp::zoo::ModelInfo& info = tnp::zoo::Info(kMixModels[i]);
    auto start = Clock::now();
    const std::string source = tnp::zoo::EmitSource(info.name);
    *emit_ms += MsSince(start);
    start = Clock::now();
    ImportedModel model;
    model.name = info.name;
    model.module = tnp::frontend::Import(info.framework, source, info.name);
    *import_ms += MsSince(start);
    const auto& param = model.module.main()->params().at(0);
    model.input_name = param->name();
    model.input = tnp::NDArray::RandomNormal(param->type_annotation().AsTensor().shape,
                                             seed * 7919 + i, 0.5f);
    model.quantized = info.data_type != tnp::DType::kFloat32;
    models.push_back(std::move(model));
  }
  return models;
}

bool OutputMatches(const tnp::NDArray& actual, const tnp::NDArray& reference, bool bitwise) {
  if (!actual.defined() || actual.shape() != reference.shape() ||
      actual.dtype() != reference.dtype()) {
    return false;
  }
  if (bitwise) return tnp::NDArray::BitEqual(actual, reference);
  return tnp::NDArray::MaxAbsDiff(actual, reference) <= 1e-3;
}

std::int64_t CounterValue(const char* name) {
  return tnp::support::metrics::Registry::Global().GetCounter(name).value();
}

void WriteTrace(const Options& options, const TraceFold& fold) {
  std::ofstream out(options.work_dir + "/" + options.workload + ".trace.json");
  out << fold.first_trace();
}

}  // namespace hostbench
