// Quickstart: the paper's Listing-2 flow end to end.
//
//   1. import a model from a framework frontend (Keras here),
//   2. partition it for the NeuroPilot backend (nir.partition_for_nir),
//   3. build the execution library,
//   4. set inputs, run, read outputs — and compare against the TVM-only
//      flow to verify the BYOC path computes the same result.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/flows.h"
#include "core/nir.h"
#include "frontend/frontend.h"
#include "relay/printer.h"
#include "relay/visitor.h"

using namespace tnp;

int main() {
  // A small Keras-style model, as the emotion-detection model arrives.
  const std::string source = R"(KERAS_MODEL v1
name: quickstart
input: shape=1x1x32x32 dtype=float32
layer Conv2D filters=16 kernel=3x3 padding=same activation=relu seed=11
layer MaxPooling2D pool=2x2
layer Conv2D filters=32 kernel=3x3 padding=same activation=relu seed=12
layer GlobalAveragePooling2D
layer Dense units=10 activation=softmax seed=13
)";

  std::cout << "--- importing Keras model ---\n";
  relay::Module module = frontend::FromKeras(source, "quickstart.keras");
  std::cout << "imported " << relay::CountCalls(module.main()->body())
            << " Relay operators\n\n";

  std::cout << "--- partitioning for NeuroPilot (nir.partition_for_nir) ---\n";
  core::NirOptions options;  // CPU+APU targets by default
  const relay::Module partitioned = core::PartitionForNir(module, options);
  const auto regions = partitioned.ExternalFunctions("nir");
  std::cout << regions.size() << " NIR region(s):\n";
  for (const auto& name : regions) {
    std::cout << "  @" << name << " with "
              << relay::CountCalls(partitioned.Get(name)->body()) << " ops\n";
  }

  std::cout << "\n--- building and running ---\n";
  relay::GraphExecutor executor(
      relay::Build(partitioned, core::MakeBuildOptions(options)));
  NDArray input = NDArray::RandomNormal(Shape({1, 1, 32, 32}), 42, 0.5f);
  executor.SetInput("input", input);
  executor.Run();
  const NDArray probabilities = executor.GetOutput(0);
  std::cout << "output: " << probabilities.ToString(10) << "\n";
  std::cout << "simulated latency: " << executor.compiled().EstimateLatency().Summary() << "\n\n";

  std::cout << "--- verifying against the TVM-only flow ---\n";
  const auto tvm_only = core::CompileFlow(module, core::FlowKind::kTvmOnly);
  tvm_only->SetInput("input", input);
  tvm_only->Run();
  const bool identical = NDArray::BitEqual(tvm_only->GetOutput(0), probabilities);
  std::cout << "BYOC output " << (identical ? "bit-identical to" : "DIFFERS from")
            << " TVM-only output\n";
  std::cout << "TVM-only simulated latency: " << tvm_only->EstimateLatency().Summary() << "\n";
  return identical ? 0 : 1;
}
