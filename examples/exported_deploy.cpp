// The paper's Section 4.5 deployment flow, end to end, across two processes:
//
//   export <path>   server side: import (PyTorch frontend) ->
//                   partition_for_nir -> relay.build, i.e. BYOC(CPU+APU) ->
//                   lib.export_library(path), i.e. the compiled .tnpa
//   deploy <path>   device side: map the exported artifact and run it
//                   through GraphExecutor — no frontend, no relay::Build, no
//                   weight re-packing — then check the outputs bitwise
//                   against an in-process compile of the same model
//
// `deploy` exits non-zero when any output differs.
//
// Build & run:  ./build/examples/exported_deploy export /tmp/deepixbis.tnpa
//               ./build/examples/exported_deploy deploy /tmp/deepixbis.tnpa
#include <iostream>
#include <string>
#include <vector>

#include "artifact/serialize.h"
#include "core/flows.h"
#include "core/nir.h"
#include "zoo/zoo.h"

using namespace tnp;

namespace {

constexpr core::FlowKind kFlow = core::FlowKind::kByocCpuApu;

zoo::ZooOptions ModelOptions() {
  zoo::ZooOptions options;
  options.image_size = 64;
  options.width = 0.25;
  options.depth = 0.3;
  return options;
}

NDArray FaceRegion() { return NDArray::RandomNormal(Shape({1, 3, 64, 64}), 77, 0.4f); }

/// "Server side": everything that needs the compiler + frontends. These are
/// the steps CompileFlow runs for BYOC(CPU+APU), which returns a session
/// rather than the compiled module this step exports.
void ServerSideExport(const std::string& artifact_path) {
  std::cout << "--- server side ---\n";
  // The anti-spoofing model arrives from PyTorch, exactly as in Listing 2.
  const std::string torch_source = zoo::EmitSource("deepixbis", ModelOptions());
  std::cout << "traced TorchScript model: " << torch_source.size() << " bytes\n";

  const relay::Module module = zoo::Build("deepixbis", ModelOptions());
  const core::NirOptions nir_options;  // mobile CPU + APU
  const relay::Module partitioned = core::PartitionForNir(module, nir_options);
  std::cout << "partitioned into " << partitioned.ExternalFunctions("nir").size()
            << " NIR regions + host graph\n";

  const std::uint64_t bytes = artifact::SaveCompiledModule(
      *relay::Build(partitioned, core::MakeBuildOptions(nir_options)), artifact_path);
  std::cout << "exported library to " << artifact_path << " (" << bytes << " bytes)\n";
}

/// "Device side": only the runtime; no frontends, no model definitions.
std::vector<NDArray> DeviceSideRun(const std::string& artifact_path) {
  std::cout << "--- device side (runtime only) ---\n";
  relay::GraphExecutor executor(artifact::MapCompiledModule(artifact_path));
  executor.SetInput("x", FaceRegion());
  executor.Run();
  std::vector<NDArray> outputs;
  for (int i = 0; i < executor.NumOutputs(); ++i) outputs.push_back(executor.GetOutput(i));
  std::cout << "pixel-wise map: " << outputs.at(0).shape().ToString()
            << ", liveness score: " << outputs.at(1).Data<float>()[0] << "\n";
  std::cout << "simulated latency: " << executor.compiled().EstimateLatency().Summary() << "\n";
  return outputs;
}

/// Reference: the same model compiled in this process, outputs compared
/// bitwise with what the mapped artifact produced.
int CheckAgainstInProcessCompile(const std::vector<NDArray>& deployed) {
  const auto session = core::CompileFlow(zoo::Build("deepixbis", ModelOptions()), kFlow);
  session->SetInput("x", FaceRegion());
  session->Run();
  if (session->NumOutputs() != static_cast<int>(deployed.size())) {
    std::cerr << "FAIL: " << deployed.size() << " outputs deployed, "
              << session->NumOutputs() << " expected\n";
    return 1;
  }
  for (int i = 0; i < session->NumOutputs(); ++i) {
    if (!NDArray::BitEqual(session->GetOutput(i), deployed[static_cast<std::size_t>(i)])) {
      std::cerr << "FAIL: output " << i << " differs from an in-process compile\n";
      return 1;
    }
  }
  std::cout << "outputs bitwise equal to an in-process compile\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc == 3 ? argv[1] : "";
  if (mode != "export" && mode != "deploy") {
    std::cerr << "usage: exported_deploy export|deploy <artifact.tnpa>\n";
    return 2;
  }
  try {
    if (mode == "export") {
      ServerSideExport(argv[2]);
      return 0;
    }
    return CheckAgainstInProcessCompile(DeviceSideRun(argv[2]));
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
}
