// Figure 5 reproduction: the pipeline-scheduling prototype. Profiles the
// three showcase models, applies the paper's stage->target policy (object
// detection moved from CPU+APU to CPU-only for exclusive resource use),
// and renders the resulting resource timeline, comparing sequential vs
// pipelined execution and the exhaustive "future work" scheduler.
#include <iostream>

#include "bench/bench_util.h"

using namespace tnp;

int main() {
  std::cout << "=== Figure 5: pipeline scheduling among the showcase models ===\n\n";

  const char* names[] = {"mobilenet_ssd_quant", "deepixbis", "emotion_cnn"};
  const char* labels[] = {"obj-det", "anti-spoof", "emotion"};

  std::vector<relay::Module> modules;
  std::vector<core::ModelProfile> profiles;
  for (int i = 0; i < 3; ++i) {
    relay::Module module = zoo::Build(names[i], bench::BenchOptions());
    core::ModelProfile profile = core::ProfileModel(module, labels[i]);
    modules.push_back(std::move(module));
    profiles.push_back(std::move(profile));
  }

  // Section 5.1: each model's individually best target.
  std::cout << "  computation scheduling (best flow per model):\n";
  for (const auto& profile : profiles) {
    const core::Assignment best = core::ComputationScheduler::BestFlow(profile);
    std::cout << "    " << profile.model << ": " << core::FlowName(best.flow) << " ("
              << bench::Ms(best.latency_us) << " ms)\n";
  }

  const int kFrames = 8;

  // Baseline: every model on its own best flow, executed sequentially.
  std::vector<core::PipelineStage> greedy_stages;
  for (const auto& profile : profiles) {
    const core::Assignment best = core::ComputationScheduler::BestFlow(profile);
    greedy_stages.push_back(core::PipelineStage{profile.model, best.flow, best.latency_us});
  }
  const core::PipelineResult greedy = core::SchedulePipeline(greedy_stages, kFrames);

  // The paper's prototype: first stage pinned to CPU-only.
  const auto prototype_stages = core::PaperPrototypeAssignment(profiles);
  const core::PipelineResult prototype = core::SchedulePipeline(prototype_stages, kFrames);

  // "Future work": exhaustive assignment search.
  const auto exhaustive_stages = core::ChoosePipelineAssignment(profiles, kFrames);
  const core::PipelineResult exhaustive = core::SchedulePipeline(exhaustive_stages, kFrames);

  std::cout << "\n  prototype stage assignment (Figure 5 colours):\n";
  for (const auto& stage : prototype_stages) {
    std::cout << "    " << stage.name << " -> " << core::FlowName(stage.flow) << " ("
              << bench::Ms(stage.latency_us) << " ms/frame)\n";
  }

  support::Table table({"schedule", "makespan ms", "sequential ms", "speedup",
                        "throughput fps"});
  const auto add = [&table, kFrames](const char* label, const core::PipelineResult& result) {
    table.AddRow({label, bench::Ms(result.makespan_us), bench::Ms(result.sequential_us),
                  support::FormatDouble(result.speedup, 2),
                  support::FormatDouble(result.throughput_fps, 1)});
    (void)kFrames;
  };
  std::cout << "\n";
  add("all-best (no exclusivity benefit)", greedy);
  add("paper prototype (det->CPU-only)", prototype);
  add("exhaustive search (future work)", exhaustive);
  table.Print(std::cout, "  " + std::to_string(kFrames) + "-frame schedules:");

  std::cout << "\n  prototype timeline (" << kFrames << " frames):\n"
            << prototype.timeline.RenderAscii(96) << "\n";

  // Pipeline depth sweep: throughput saturates once the pipeline is full.
  support::Table sweep({"frames", "makespan ms", "throughput fps"});
  for (const int frames : {1, 2, 4, 8, 16, 32}) {
    const core::PipelineResult result = core::SchedulePipeline(prototype_stages, frames);
    sweep.AddRow({std::to_string(frames), bench::Ms(result.makespan_us),
                  support::FormatDouble(result.throughput_fps, 1)});
  }
  std::cout << "\n";
  sweep.Print(std::cout, "  pipeline depth sweep (prototype assignment):");

  // Scheduling cost itself, measured over repetitions (exact
  // min/median/stddev of the raw samples).
  support::Table cost({"scheduler", "min ms", "median ms", "stddev ms"});
  const auto measure = [&cost, &profiles, kFrames](const char* label,
                                                   const std::function<void()>& fn) {
    const auto summary = bench::MeasureRepetitions(16, fn);
    std::vector<std::string> row = {label};
    for (const auto& cell : bench::RepetitionCells(summary)) row.push_back(cell);
    cost.AddRow(row);
    (void)profiles;
    (void)kFrames;
  };
  measure("prototype", [&] { core::SchedulePipeline(prototype_stages, kFrames); });
  measure("exhaustive", [&] { core::ChoosePipelineAssignment(profiles, kFrames); });
  std::cout << "\n";
  cost.Print(std::cout, "  scheduling cost over 16 repetitions:");

  // Steady-state memory per pipeline stage: each stage holds one pre-planned
  // session whose arena is reused across frames, so a warm pipeline performs
  // zero tensor allocations per frame.
  support::Table memory({"stage", "flow", "peak arena KiB", "allocs/run"});
  for (int i = 0; i < 3; ++i) {
    const core::Assignment best = core::ComputationScheduler::BestFlow(profiles[i]);
    bench::ResetArenaWatermark();
    std::string error;
    const auto session = core::TryCompileFlow(modules[i], best.flow, &error);
    if (session == nullptr) {
      memory.AddRow({labels[i], core::FlowName(best.flow), "--", "--"});
      continue;
    }
    bench::BindZeroInputs(session, modules[i]);
    const bench::MemoryStats stats =
        bench::MeasureRunMemory([&session] { session->Run(); });
    memory.AddRow({labels[i], core::FlowName(best.flow), bench::Kib(stats.peak_arena_bytes),
                   std::to_string(stats.allocs_per_run)});
  }
  std::cout << "\n";
  memory.Print(std::cout, "  per-stage steady-state memory (pre-planned arenas):");
  return 0;
}
