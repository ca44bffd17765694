// BYOC extension point: bring your *own* codegen, exactly what TVM's BYOC
// is for. This example registers a toy "mydsp" backend that only supports
// elementwise activations, partitions a graph for it, and executes through
// the same graph-runtime path the NeuroPilot backend uses — demonstrating
// that the partitioner/codegen/runtime plumbing is backend-agnostic.
//
// Build & run:  ./build/examples/custom_backend
#include <iostream>

#include "frontend/common.h"
#include "relay/build.h"
#include "relay/byoc_partition.h"
#include "relay/interpreter.h"
#include "relay/pass.h"
#include "relay/printer.h"
#include "relay/visitor.h"

using namespace tnp;
using relay::Attrs;

namespace {

/// Per-executor state: the region's result, at a fixed address.
class MyDspSession final : public relay::ExternalSession {
 public:
  std::span<const NDArray* const> outputs() const override { return {&result_ptr_, 1}; }
  NDArray result;

 private:
  const NDArray* result_ptr_ = &result;
};

/// Trivial external module: evaluates the region with the reference
/// interpreter and charges a fixed "DSP" cost.
class MyDspModule final : public relay::ExternalModule {
 public:
  MyDspModule(std::string name, relay::FunctionPtr fn)
      : name_(std::move(name)), fn_(std::move(fn)) {
    num_ops_ = relay::CountCalls(fn_->body());
  }

  relay::ExternalSessionPtr CreateSession() const override {
    return std::make_shared<MyDspSession>();
  }

  void Run(relay::ExternalSession& session,
           std::span<const NDArray* const> inputs) const override {
    relay::Environment env;
    for (std::size_t i = 0; i < inputs.size(); ++i) env[fn_->params()[i].get()] = *inputs[i];
    static_cast<MyDspSession&>(session).result = relay::EvalExpr(fn_->body(), env).AsTensor();
  }

  void EstimateLatency(sim::SimClock& clock) const override {
    sim::OpDesc desc;
    desc.name = "mydsp-subgraph";
    desc.fused_ops = num_ops_;
    clock.AddOp(desc, sim::DeviceKind::kNeuronApu, 42.0 /*us, flat*/);
  }

  const std::string& name() const override { return name_; }
  int num_ops() const override { return num_ops_; }

 private:
  std::string name_;
  relay::FunctionPtr fn_;
  int num_ops_ = 0;
};

}  // namespace

int main() {
  // 1. Register the codegen under the compiler name "mydsp".
  relay::ExternalCodegenRegistry::Global().Register(
      "mydsp", [](const relay::FunctionPtr& fn, const std::string& global_name,
                  const relay::BuildOptions&) -> relay::ExternalModulePtr {
        relay::InferFunctionTypes(fn);
        std::cout << "  [mydsp codegen] compiling region '" << global_name << "' with "
                  << relay::CountCalls(fn->body()) << " ops\n";
        return std::make_shared<MyDspModule>(global_name, fn);
      });

  // 2. Build a graph mixing supported (activations) and unsupported ops.
  using frontend::TypedCall;
  auto x = frontend::TypedVar("x", Shape({1, 8}), DType::kFloat32);
  auto a = TypedCall("nn.relu", {x});
  auto b = TypedCall("tanh", {a});
  auto c = TypedCall("nn.dense",
                     {b, frontend::WeightF32(Shape({8, 8}), 5), frontend::ZeroBiasF32(8)});
  auto d = TypedCall("sigmoid", {c});
  relay::Module module(relay::MakeFunction({x}, d));
  module = relay::InferType().Run(module);

  // 3. Partition: the DSP handles elementwise activations only.
  std::cout << "partitioning for mydsp (activations only)...\n";
  const relay::Module partitioned =
      relay::PartitionGraph(module, "mydsp", [](const relay::Call& call) {
        return call.op_name() == "nn.relu" || call.op_name() == "tanh" ||
               call.op_name() == "sigmoid";
      });
  std::cout << partitioned.ExternalFunctions("mydsp").size()
            << " DSP regions extracted (dense stays on the host)\n\n";
  std::cout << relay::PrintModule(partitioned) << "\n";

  // 4. Build + run, and verify against the unpartitioned program.
  relay::GraphExecutor executor(relay::Build(partitioned));
  NDArray input = NDArray::RandomNormal(Shape({1, 8}), 3);
  executor.SetInput("x", input);
  executor.Run();

  relay::GraphExecutor reference(relay::Build(module));
  reference.SetInput("x", input);
  reference.Run();

  const bool identical = NDArray::BitEqual(executor.GetOutput(0), reference.GetOutput(0));
  std::cout << "DSP-partitioned output " << (identical ? "matches" : "DIFFERS from")
            << " the host-only output\n";
  std::cout << "simulated time with DSP: " << executor.compiled().EstimateLatency().Summary() << "\n";
  return identical ? 0 : 1;
}
