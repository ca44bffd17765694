// Static memory planning: planner unit behaviour, arena lifetime guarantees,
// liveness through tuple plumbing, the exhaustive no-overlap invariant on
// every zoo model's plan, bitwise equivalence of planned vs allocating
// execution, and the zero-allocation steady state of sessions and pipelines.
#include <gtest/gtest.h>

#include <cmath>

#include "core/flows.h"
#include "core/pipeline_executor.h"
#include "frontend/common.h"
#include "kernels/pack.h"
#include "oracle.h"
#include "relay/build.h"
#include "support/arena.h"
#include "support/memplan.h"
#include "zoo/zoo.h"

namespace tnp {
namespace relay {
namespace {

using frontend::TypedCall;
using frontend::TypedVar;
using frontend::WeightF32;
using frontend::ZeroBiasF32;

// ---------------------------------------------------------------------------
// LinearMemoryPlanner

TEST(MemPlanner, ReusesExpiredRegion) {
  support::LinearMemoryPlanner planner;
  planner.BeginStep(0);
  const int a = planner.Allocate(1000, /*last_use=*/1);
  planner.BeginStep(2);  // a expired (last_use 1 < 2)
  const int b = planner.Allocate(500, /*last_use=*/3);
  EXPECT_EQ(planner.region(b).offset, planner.region(a).offset);
  EXPECT_EQ(planner.arena_bytes(), planner.region(a).bytes);
  EXPECT_GT(planner.total_bytes(), planner.arena_bytes());
}

TEST(MemPlanner, RegionDyingAtCurrentStepIsNotReusable) {
  support::LinearMemoryPlanner planner;
  planner.BeginStep(0);
  const int a = planner.Allocate(256, /*last_use=*/1);
  planner.BeginStep(1);  // a is read AT step 1 — must survive it
  const int b = planner.Allocate(256, /*last_use=*/2);
  EXPECT_NE(planner.region(b).offset, planner.region(a).offset);
}

TEST(MemPlanner, CoalescesAdjacentFreeRanges) {
  support::LinearMemoryPlanner planner;
  planner.BeginStep(0);
  const int a = planner.Allocate(64, /*last_use=*/1);
  const int b = planner.Allocate(64, /*last_use=*/1);
  const int c = planner.Allocate(64, /*last_use=*/5);
  planner.BeginStep(2);  // a and b free and coalesce into one 128-byte range
  const int d = planner.Allocate(128, /*last_use=*/5);
  EXPECT_EQ(planner.region(d).offset, planner.region(a).offset);
  EXPECT_EQ(planner.region(d).offset + planner.region(d).bytes, planner.region(c).offset);
  (void)b;
}

TEST(MemPlanner, ExtendLifetimeBlocksReuse) {
  support::LinearMemoryPlanner planner;
  planner.BeginStep(0);
  const int a = planner.Allocate(128, /*last_use=*/1);
  planner.ExtendLifetime(a, 4);  // an alias keeps the bytes live
  planner.BeginStep(2);
  const int b = planner.Allocate(128, /*last_use=*/3);
  EXPECT_NE(planner.region(b).offset, planner.region(a).offset);
  EXPECT_EQ(planner.region(a).last_use, 4);
}

TEST(MemPlanner, BestFitPrefersSmallestHole) {
  support::LinearMemoryPlanner planner;
  planner.BeginStep(0);
  const int big = planner.Allocate(1024, /*last_use=*/1);
  const int keep1 = planner.Allocate(64, /*last_use=*/9);
  const int small = planner.Allocate(128, /*last_use=*/1);
  const int keep2 = planner.Allocate(64, /*last_use=*/9);
  planner.BeginStep(2);  // two holes: 1024 bytes and 128 bytes
  const int c = planner.Allocate(100, /*last_use=*/5);
  EXPECT_EQ(planner.region(c).offset, planner.region(small).offset);  // smallest fit
  (void)big;
  (void)keep1;
  (void)keep2;
}

// ---------------------------------------------------------------------------
// Arena

TEST(Arena, ViewsPinBytesAfterArenaDestruction) {
  NDArray view;
  {
    support::Arena arena("test");
    arena.Reserve(256);
    view = NDArray::ViewOver(arena.Data(64, 16), 16, Shape({4}), DType::kFloat32,
                             arena.handle());
    view.Data<float>()[0] = 42.5f;
  }  // arena destroyed; the view must keep the block alive
  EXPECT_EQ(view.Data<float>()[0], 42.5f);
  EXPECT_TRUE(view.IsView());
}

TEST(Arena, FreezesAfterFirstView) {
  support::Arena arena("test");
  arena.Reserve(128);
  (void)arena.Data(0, 64);
  EXPECT_THROW(arena.Reserve(1 << 20), InternalError);  // growing would dangle views
  EXPECT_THROW(arena.Data(64, 128), InternalError);     // out of bounds
}

TEST(Arena, ScratchBumpAllocatorAlignsAndResets) {
  support::Arena arena("test");
  void* p1 = arena.Allocate(10);
  void* p2 = arena.Allocate(10);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p2) % 64, 0u);
  EXPECT_NE(p1, p2);
  EXPECT_GT(arena.scratch_bytes(), 0u);
  arena.ResetScratch();
  EXPECT_EQ(arena.scratch_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Plan structure on hand-built programs

/// Root slot of an alias chain.
int RootSlot(const MemoryPlan& plan, int slot) {
  while (plan.slots[static_cast<std::size_t>(slot)].kind == SlotPlan::Kind::kAlias) {
    slot = plan.slots[static_cast<std::size_t>(slot)].alias_of;
  }
  return slot;
}

/// Index of the single kCallOp instruction with `op_name` (-1 if missing or
/// duplicated).
int FindOpIndex(const CompiledModule& compiled, const std::string& op_name) {
  int found = -1;
  for (std::size_t i = 0; i < compiled.instructions.size(); ++i) {
    const Instruction& inst = compiled.instructions[i];
    if (inst.kind != Instruction::Kind::kCallOp || inst.op_name != op_name) continue;
    if (found >= 0) return -1;  // duplicate
    found = static_cast<int>(i);
  }
  return found;
}

BuildOptions NoFusion() {
  BuildOptions options;
  options.enable_fusion = false;  // keep a 1:1 op/instruction mapping
  return options;
}

TEST(MemoryPlan, TupleForwardingExtendsProducerLifetime) {
  // a feeds a later consumer *through* a tuple, so multiply(a, a) must not
  // run in place over a's region even though a's last direct use is there.
  auto x = TypedVar("data", Shape({1, 8}), DType::kFloat32);
  auto a = MakeCall("add", {x, x});
  auto m = MakeCall("multiply", {a, a});
  auto t = MakeTuple({a, m});
  auto g = MakeTupleGetItem(t, 0);
  auto out = MakeCall("subtract", {g, m});
  const Module module = frontend::FinishModule({x}, out);
  const auto compiled = Build(module, NoFusion());

  const MemoryPlan& plan = compiled->memory_plan;
  const int add_index = FindOpIndex(*compiled, "add");
  const int mul_index = FindOpIndex(*compiled, "multiply");
  const int sub_index = FindOpIndex(*compiled, "subtract");
  ASSERT_GE(add_index, 0);
  ASSERT_GE(mul_index, 0);
  ASSERT_GE(sub_index, 0);
  const auto slot_of = [&](int inst_index) {
    return compiled->instructions[static_cast<std::size_t>(inst_index)].output_slot;
  };
  const SlotPlan& a_plan = plan.slots[static_cast<std::size_t>(slot_of(add_index))];
  const SlotPlan& m_plan = plan.slots[static_cast<std::size_t>(slot_of(mul_index))];
  ASSERT_EQ(a_plan.kind, SlotPlan::Kind::kArena);
  ASSERT_EQ(m_plan.kind, SlotPlan::Kind::kArena);  // aliasing a would corrupt g
  // a's region stays live through the tuple projection's consumer.
  EXPECT_GE(a_plan.last_use, sub_index);
  // Both regions are live simultaneously, so their bytes must not overlap.
  const bool disjoint = a_plan.offset + a_plan.bytes <= m_plan.offset ||
                        m_plan.offset + m_plan.bytes <= a_plan.offset;
  EXPECT_TRUE(disjoint);

  // Numerics agree with the interpreter oracle.
  const NDArray input = NDArray::RandomNormal(Shape({1, 8}), 11, 0.5f);
  GraphExecutor planned(compiled);
  planned.SetInput("data", input);
  planned.Run();
  EXPECT_TRUE(NDArray::BitEqual(planned.GetOutput(0), OracleOutputs(module, input).at(0)));
  EXPECT_GT(planned.arena_bytes(), 0);
}

TEST(MemoryPlan, ElementwiseChainAliasesInPlace) {
  // add -> relu -> batch_flatten -> multiply: the relu runs in place over the
  // add's region (it is the region's final reader), the flatten is a free
  // view over the relu, and BitEqual against the allocating path proves the
  // in-place rewrites never corrupt an operand.
  auto x = TypedVar("data", Shape({1, 8}), DType::kFloat32);
  auto c = TypedCall("add", {x, x});
  auto r = TypedCall("nn.relu", {c});
  auto f = TypedCall("nn.batch_flatten", {r});
  auto out = TypedCall("multiply", {f, r});
  const Module module(MakeFunction({x}, out));
  const auto compiled = Build(module, NoFusion());

  const MemoryPlan& plan = compiled->memory_plan;
  const int add_index = FindOpIndex(*compiled, "add");
  const int relu_index = FindOpIndex(*compiled, "nn.relu");
  const int flat_index = FindOpIndex(*compiled, "nn.batch_flatten");
  ASSERT_GE(add_index, 0);
  ASSERT_GE(relu_index, 0);
  ASSERT_GE(flat_index, 0);
  const int c_slot = compiled->instructions[static_cast<std::size_t>(add_index)].output_slot;
  const int r_slot = compiled->instructions[static_cast<std::size_t>(relu_index)].output_slot;
  const int f_slot = compiled->instructions[static_cast<std::size_t>(flat_index)].output_slot;
  EXPECT_EQ(plan.slots[static_cast<std::size_t>(r_slot)].kind, SlotPlan::Kind::kAlias);
  EXPECT_EQ(plan.slots[static_cast<std::size_t>(f_slot)].kind, SlotPlan::Kind::kAlias);
  EXPECT_EQ(RootSlot(plan, r_slot), c_slot);
  EXPECT_EQ(RootSlot(plan, f_slot), c_slot);
  EXPECT_GE(plan.num_alias_slots, 2);

  const NDArray input = NDArray::RandomNormal(Shape({1, 8}), 13, 0.7f);
  GraphExecutor planned(compiled);
  planned.SetInput("data", input);
  planned.Run();
  EXPECT_TRUE(NDArray::BitEqual(planned.GetOutput(0), OracleOutputs(module, input).at(0)));
}

// ---------------------------------------------------------------------------
// Zoo-wide invariants

zoo::ZooOptions SmallOptions(const std::string& name) {
  zoo::ZooOptions options;
  options.image_size = 32;
  options.width = 0.25;
  options.depth = 0.3;
  if (name == "emotion_cnn") options.image_size = 48;
  if (name == "yolov3_tiny" || name == "yolov3" || name == "nasnet") options.image_size = 64;
  return options;
}

NDArray ZooInput(const std::string& name, const zoo::ZooOptions& options) {
  const std::int64_t channels = name == "emotion_cnn" ? 1 : 3;
  return NDArray::RandomNormal(
      Shape({1, channels, options.image_size, options.image_size}), 99, 0.4f);
}

void SetFirstInput(GraphExecutor& executor, const NDArray& input) {
  for (const char* input_name : {"input", "x", "data", "t0"}) {
    try {
      executor.SetInput(input_name, input);
      return;
    } catch (const Error&) {
      continue;
    }
  }
  FAIL() << "no known input name bound";
}

TEST(MemoryPlan, ZooPlansHaveNoOverlappingLiveRegions) {
  for (const auto& info : zoo::AllModels()) {
    const zoo::ZooOptions options = SmallOptions(info.name);
    const auto compiled = Build(zoo::Build(info.name, options));
    const MemoryPlan& plan = compiled->memory_plan;
    ASSERT_EQ(static_cast<int>(plan.slots.size()), compiled->num_slots) << info.name;
    EXPECT_GT(plan.num_arena_slots, 0) << info.name;
    EXPECT_GT(plan.arena_bytes, 0) << info.name;
    EXPECT_LE(plan.arena_bytes, plan.planned_bytes) << info.name;

    // Alias chains resolve to an arena root sharing the same offset.
    std::vector<int> arena_roots;
    for (int s = 0; s < compiled->num_slots; ++s) {
      const SlotPlan& slot = plan.slots[static_cast<std::size_t>(s)];
      if (slot.kind == SlotPlan::Kind::kArena) arena_roots.push_back(s);
      if (slot.kind != SlotPlan::Kind::kAlias) continue;
      const int root = RootSlot(plan, s);
      ASSERT_EQ(plan.slots[static_cast<std::size_t>(root)].kind, SlotPlan::Kind::kArena)
          << info.name << " slot " << s;
      EXPECT_EQ(slot.offset, plan.slots[static_cast<std::size_t>(root)].offset)
          << info.name << " slot " << s;
      EXPECT_LE(slot.bytes, plan.slots[static_cast<std::size_t>(root)].bytes)
          << info.name << " slot " << s;
    }

    // Exhaustive pairwise check: byte-overlapping regions must have disjoint
    // [first_def, last_use] windows.
    for (std::size_t i = 0; i < arena_roots.size(); ++i) {
      const SlotPlan& a = plan.slots[static_cast<std::size_t>(arena_roots[i])];
      ASSERT_LE(a.offset + a.bytes, plan.arena_bytes) << info.name;
      for (std::size_t j = i + 1; j < arena_roots.size(); ++j) {
        const SlotPlan& b = plan.slots[static_cast<std::size_t>(arena_roots[j])];
        const bool bytes_overlap =
            a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
        if (!bytes_overlap) continue;
        const bool lifetimes_disjoint = a.last_use < b.first_def || b.last_use < a.first_def;
        EXPECT_TRUE(lifetimes_disjoint)
            << info.name << ": slots " << arena_roots[i] << " and " << arena_roots[j]
            << " share bytes while both live";
      }
    }

    // Every instruction's arena-backed inputs are live when it executes, and
    // the program output is never recycled.
    for (std::size_t i = 0; i < compiled->instructions.size(); ++i) {
      for (const int s : compiled->instructions[i].input_slots) {
        const SlotPlan& slot = plan.slots[static_cast<std::size_t>(s)];
        if (slot.kind != SlotPlan::Kind::kArena && slot.kind != SlotPlan::Kind::kAlias) continue;
        const SlotPlan& root = plan.slots[static_cast<std::size_t>(RootSlot(plan, s))];
        EXPECT_LE(root.first_def, static_cast<int>(i)) << info.name;
        EXPECT_GE(root.last_use, static_cast<int>(i)) << info.name;
      }
    }
    const SlotPlan& out = plan.slots[static_cast<std::size_t>(compiled->output_slot)];
    if (out.kind == SlotPlan::Kind::kArena || out.kind == SlotPlan::Kind::kAlias) {
      EXPECT_EQ(plan.slots[static_cast<std::size_t>(RootSlot(plan, compiled->output_slot))]
                    .last_use,
                MemoryPlan::kLiveForever)
          << info.name;
    }
  }
}

TEST(MemoryPlan, PlannedExecutionBitwiseMatchesOracleAcrossZoo) {
  int aliased_models = 0;
  for (const auto& info : zoo::AllModels()) {
    const zoo::ZooOptions options = SmallOptions(info.name);
    const Module module = zoo::Build(info.name, options);
    const auto compiled = Build(module);
    if (compiled->memory_plan.num_alias_slots > 0) ++aliased_models;

    const NDArray input = ZooInput(info.name, options);
    const std::vector<NDArray> expected = OracleOutputs(module, input);
    GraphExecutor planned(compiled);
    SetFirstInput(planned, input);
    planned.Run();
    ASSERT_EQ(planned.NumOutputs(), static_cast<int>(expected.size())) << info.name;
    for (int o = 0; o < planned.NumOutputs(); ++o) {
      EXPECT_TRUE(NDArray::BitEqual(planned.GetOutput(o), expected[static_cast<std::size_t>(o)]))
          << info.name << " output " << o;
    }
    // Second planned run over the same arena stays deterministic.
    SetFirstInput(planned, input);
    planned.Run();
    for (int o = 0; o < planned.NumOutputs(); ++o) {
      EXPECT_TRUE(NDArray::BitEqual(planned.GetOutput(o), expected[static_cast<std::size_t>(o)]))
          << info.name << " output " << o << " (second run)";
    }
  }
  EXPECT_GT(aliased_models, 0) << "in-place aliasing never engaged on the zoo";
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state

relay::Module FullySupportedModel() {
  auto x = TypedVar("data", Shape({1, 3, 16, 16}), DType::kFloat32);
  auto conv = TypedCall("nn.conv2d", {x, WeightF32(Shape({8, 3, 3, 3}), 1), ZeroBiasF32(8)},
                        Attrs().SetInts("padding", {1, 1}));
  auto relu = TypedCall("nn.relu", {conv});
  auto pool = TypedCall("nn.global_avg_pool2d", {relu});
  auto flat = TypedCall("nn.batch_flatten", {pool});
  auto dense = TypedCall("nn.dense", {flat, WeightF32(Shape({5, 8}), 2), ZeroBiasF32(5)});
  auto softmax = TypedCall("nn.softmax", {dense});
  return Module(MakeFunction({x}, softmax));
}

TEST(MemoryPlan, SteadyStateRunsAllocateNoTensorsOnEveryFlow) {
  const Module module = FullySupportedModel();
  const NDArray input = NDArray::RandomNormal(Shape({1, 3, 16, 16}), 5, 0.5f);
  for (const core::FlowKind flow : core::kAllFlows) {
    std::string error;
    const auto session = core::TryCompileFlow(module, flow, &error);
    ASSERT_NE(session, nullptr) << core::FlowName(flow) << ": " << error;
    session->SetInput("data", input);
    session->Run();  // warmup: all buffers bound, kernel scratch arena grown
    const std::int64_t before = NDArray::TotalAllocations();
    const std::int64_t chunks_before = support::Arena::TotalScratchChunkAllocs();
    const std::int64_t packs_before = kernels::TotalWeightPacks();
    for (int frame = 0; frame < 3; ++frame) {
      session->SetInput("data", input);
      session->Run();
    }
    EXPECT_EQ(NDArray::TotalAllocations() - before, 0)
        << core::FlowName(flow) << " allocated tensors in steady state";
    EXPECT_EQ(support::Arena::TotalScratchChunkAllocs() - chunks_before, 0)
        << core::FlowName(flow) << " grew kernel scratch in steady state";
    EXPECT_EQ(kernels::TotalWeightPacks() - packs_before, 0)
        << core::FlowName(flow) << " repacked weights in steady state";
    (void)session->GetOutput(0);
  }
}

TEST(MemoryPlan, PipelineSteadyStateAllocatesNoTensors) {
  // Three pipeline stages, each owning one pre-planned session; packets carry
  // pre-created inputs and a scalar result, so warm frames touch the tensor
  // heap not at all.
  const Module module = FullySupportedModel();
  struct Packet {
    int frame = 0;
    NDArray input;
    float checksum = 0.0f;
  };

  std::vector<core::InferenceSessionPtr> sessions;
  for (const core::FlowKind flow :
       {core::FlowKind::kTvmOnly, core::FlowKind::kByocCpuApu, core::FlowKind::kNpCpuApu}) {
    sessions.push_back(core::CompileFlow(module, flow));
  }

  using P = core::Pipeline<Packet>;
  std::vector<P::Stage> stages;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const auto session = sessions[s];
    stages.push_back(P::Stage{
        "stage" + std::to_string(s), session->UsedResources(),
        [session](Packet packet) -> std::optional<Packet> {
          session->SetInput("data", packet.input);
          session->Run();
          packet.checksum += session->GetOutput(0).Data<float>()[0];
          return packet;
        }});
  }

  const auto make_packets = [](int count) {
    std::vector<Packet> packets;
    for (int f = 0; f < count; ++f) {
      packets.push_back(Packet{
          f,
          NDArray::RandomNormal(Shape({1, 3, 16, 16}), 100 + static_cast<std::uint64_t>(f),
                                0.5f)});
    }
    return packets;
  };
  std::vector<Packet> warmup_packets = make_packets(2);
  std::vector<Packet> steady_packets = make_packets(6);  // created BEFORE measuring

  P pipeline(std::move(stages));
  const auto warm = pipeline.Run(std::move(warmup_packets));
  EXPECT_EQ(warm.size(), 2u);

  const std::int64_t before = NDArray::TotalAllocations();
  const auto results = pipeline.Run(std::move(steady_packets));
  EXPECT_EQ(NDArray::TotalAllocations() - before, 0)
      << "warm pipeline frames must not allocate tensors";
  ASSERT_EQ(results.size(), 6u);
  for (const auto& packet : results) {
    EXPECT_TRUE(std::isfinite(packet.checksum));
  }
}

TEST(MemoryPlan, OutputViewSurvivesSessionDestruction) {
  const Module module = FullySupportedModel();
  NDArray held;
  {
    auto session = core::CompileFlow(module, core::FlowKind::kTvmOnly);
    session->SetInput("data", NDArray::RandomNormal(Shape({1, 3, 16, 16}), 21, 0.5f));
    session->Run();
    held = session->GetOutput(0);
  }  // session (and its arena object) destroyed
  float sum = 0.0f;
  for (std::int64_t i = 0; i < held.NumElements(); ++i) sum += held.Data<float>()[i];
  EXPECT_TRUE(std::isfinite(sum));  // bytes stayed pinned by the view
}

}  // namespace
}  // namespace relay
}  // namespace tnp
