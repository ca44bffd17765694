// The bound run plan: both executors run pre-bound kernel calls, so a
// steady-state Run() allocates nothing, and the bound plan is immutable
// state that executors and sessions on different threads share.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/flows.h"
#include "core/relay_to_neuron.h"
#include "oracle.h"
#include "zoo/zoo.h"

namespace {

// Global allocation counter: every heap allocation in the process.
std::atomic<std::int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tnp {
namespace {

zoo::ZooOptions SmallOptions(const std::string& name) {
  zoo::ZooOptions options;
  options.image_size = name == "emotion_cnn" ? 48 : 32;
  options.width = 0.25;
  options.depth = 0.3;
  return options;
}

NDArray SmallInput(const std::string& name) {
  const zoo::ZooOptions options = SmallOptions(name);
  const std::int64_t channels = name == "emotion_cnn" ? 1 : 3;
  return NDArray::RandomNormal(
      Shape({1, channels, options.image_size, options.image_size}), 99, 0.4f);
}

/// Zoo frontends disagree on the graph input's name; bind whichever exists.
void SetAnyInput(core::InferenceSession& session, const NDArray& input) {
  for (const char* name : {"input", "x", "data", "t0"}) {
    try {
      session.SetInput(name, input);
      return;
    } catch (const Error&) {
    }
  }
  FAIL() << "no known input name accepted";
}

TEST(RunPlan, SteadyStateRunsAllocateNothing) {
  const core::FlowKind flows[] = {core::FlowKind::kTvmOnly, core::FlowKind::kByocCpuApu,
                                  core::FlowKind::kNpApu};
  int sessions = 0;
  for (const std::string name : {"emotion_cnn", "mobilenet_v2", "mobilenet_v2_quant",
                                 "resnet18"}) {
    const relay::Module module = zoo::Build(name, SmallOptions(name));
    const NDArray input = SmallInput(name);
    for (const core::FlowKind flow : flows) {
      std::string error;
      const core::InferenceSessionPtr session = core::TryCompileFlow(module, flow, &error);
      if (session == nullptr) {
        ASSERT_EQ(flow, core::FlowKind::kNpApu) << name << ": " << error;
        continue;  // the model holds ops outside Neuron's vocabulary
      }
      ++sessions;
      SetAnyInput(*session, input);
      session->Run();  // warm-up: lazy scratch and first-touch state
      const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
      for (int i = 0; i < 3; ++i) session->Run();
      const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
      EXPECT_EQ(after - before, 0) << name << " " << core::FlowName(flow);
    }
  }
  EXPECT_GE(sessions, 9);
}

/// Runs `run(thread)` on two threads and waits for both.
template <typename Fn>
void OnTwoThreads(Fn run) {
  std::thread a([&] { run(0); });
  std::thread b([&] { run(1); });
  a.join();
  b.join();
}

constexpr int kIterations = 200;

TEST(RunPlan, ExecutorsShareOneCompiledModuleAcrossThreads) {
  const std::string name = "mobilenet_v2";
  const relay::Module module = zoo::Build(name, SmallOptions(name));
  const NDArray inputs[] = {SmallInput(name),
                            NDArray::RandomNormal(SmallInput(name).shape(), 7, 0.4f)};
  const NDArray expected[] = {OracleOutputs(module, inputs[0]).at(0),
                              OracleOutputs(module, inputs[1]).at(0)};
  // BYOC(CPU+APU): host kernel calls and a Neuron subgraph in one program.
  core::NirOptions options;
  const relay::CompiledModulePtr compiled =
      relay::Build(core::PartitionForNir(module, options), core::MakeBuildOptions(options));
  ASSERT_GT(compiled->externals.size(), 0u);

  std::atomic<int> mismatches{0};
  OnTwoThreads([&](int thread) {
    relay::GraphExecutor executor(compiled);
    executor.SetInput(compiled->input_slots.begin()->first, inputs[thread]);
    for (int i = 0; i < kIterations; ++i) {
      executor.Run();
      if (!NDArray::BitEqual(executor.GetOutput(0), expected[thread])) ++mismatches;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(RunPlan, NeuronSessionsShareOnePackageAcrossThreads) {
  const std::string name = "emotion_cnn";
  const relay::Module module = zoo::Build(name, SmallOptions(name));
  const NDArray inputs[] = {SmallInput(name),
                            NDArray::RandomNormal(SmallInput(name).shape(), 7, 0.4f)};
  const NDArray expected[] = {OracleOutputs(module, inputs[0]).at(0),
                              OracleOutputs(module, inputs[1]).at(0)};
  const relay::Module prepared =
      relay::Sequential({relay::InferType(), relay::SimplifyExpr(), relay::FoldConstant(),
                         relay::InferType()})
          .Run(module);
  neuron::CompilerOptions options;
  options.target = neuron::TargetConfig::ApuOnly();
  const neuron::NeuronPackagePtr package = neuron::NeuronCompiler(options).Compile(
      core::RelayToNeuronConverter().Convert(prepared.main()), "np");

  std::atomic<int> mismatches{0};
  OnTwoThreads([&](int thread) {
    neuron::NeuronExecutionSession session(package);
    const NDArray* bound[] = {&inputs[thread]};
    for (int i = 0; i < kIterations; ++i) {
      session.Run(bound);
      if (!NDArray::BitEqual(*session.outputs()[0], expected[thread])) ++mismatches;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace tnp
