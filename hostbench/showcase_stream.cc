// showcase_stream: the paper's cascade (detection -> anti-spoof -> emotion)
// on a seeded scene, one caller. p50/p95 time one ProcessFrame call;
// throughput is frames/s of RunPipelined over a fixed frame count.
#include <memory>

#include "support/metrics.h"
#include "vision/app.h"
#include "vision/detector.h"
#include "workloads.h"

namespace hostbench {
namespace {

using tnp::vision::FrameResult;

constexpr int kScenes = 8;   ///< seeded scenes per run (their face counts differ)
constexpr int kFrames = 16;  ///< frames per scene and per RunPipelined call
const char* const kStages[] = {"obj-det", "anti-spoof", "emotion"};

bool SameBox(const tnp::vision::Box& a, const tnp::vision::Box& b) {
  return a.x == b.x && a.y == b.y && a.w == b.w && a.h == b.h;
}

bool SameDetections(const std::vector<tnp::vision::Detection>& a,
                    const std::vector<tnp::vision::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameBox(a[i].box, b[i].box) || a[i].score != b[i].score || a[i].label != b[i].label) {
      return false;
    }
  }
  return true;
}

bool SameFrame(const FrameResult& a, const FrameResult& b) {
  if (a.frame_index != b.frame_index || a.num_candidates != b.num_candidates ||
      !SameDetections(a.bodies, b.bodies) || !SameDetections(a.faces, b.faces) ||
      a.results.size() != b.results.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    if (!SameBox(x.box, y.box) || x.antispoof_score != y.antispoof_score || x.spoof != y.spoof ||
        x.emotion != y.emotion) {
      return false;
    }
  }
  return true;
}

struct Window {
  Samples frame_ms;             ///< one ProcessFrame call each
  double pipelined_ms = 0.0;    ///< RunPipelined wall time (its own clock)
  std::int64_t pipelined_frames = 0;
  Samples fps;                  ///< per RunPipelined pass: frames per second
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
};

struct SceneInput {
  tnp::vision::Scene scene;
  std::vector<tnp::NDArray> frames;
  std::vector<FrameResult> reference;
};

/// For each scene in turn, a sequential pass (each frame timed) and a
/// pipelined pass over the same kFrames frames, until `seconds` have passed.
Window Measure(tnp::vision::ShowcaseApp& app, const std::vector<SceneInput>& scenes,
               double seconds, Report& report, TraceFold* fold) {
  Window window;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  const std::string unit = "unit:ProcessFrame";
  const std::string pipelined = "RunPipelined";
  auto check = [&](bool ok) {
    report.Check(ok);
    ++window.attempted;
    window.ok += ok ? 1 : 0;
  };
  while (Clock::now() < deadline) {
    for (const SceneInput& input : scenes) {
      for (int f = 0; f < kFrames; ++f) {
        const auto t0 = Clock::now();
        FrameResult result;
        {
          BenchSpan span(unit);
          result = app.ProcessFrame(input.frames[f], f);
        }
        window.frame_ms.Add(MsSince(t0));
        check(SameFrame(result, input.reference[f]));
        if (fold != nullptr) fold->Drain();
      }
      tnp::vision::RunSummary summary;
      {
        BenchSpan span(pipelined);
        summary = app.RunPipelined(input.scene, kFrames);
      }
      window.pipelined_ms += summary.wall_ms;
      window.pipelined_frames += kFrames;
      for (int f = 0; f < kFrames; ++f) {
        check(f < static_cast<int>(summary.frames.size()) &&
              SameFrame(summary.frames[f], input.reference[f]));
      }
      window.fps.Add(kFrames * 1000.0 / summary.wall_ms);
      if (fold != nullptr) fold->Drain();
    }
  }
  return window;
}

}  // namespace

Report RunShowcaseStream(const Options& options) {
  Report report;
  std::vector<SceneInput> scenes(kScenes);
  for (int s = 0; s < kScenes; ++s) {
    scenes[s].scene = tnp::vision::Scene::Random(320, 240, 4, 2, options.seed * kScenes + s);
    for (int f = 0; f < kFrames; ++f) {
      scenes[s].frames.push_back(tnp::vision::RenderFrame(scenes[s].scene, f));
    }
  }

  std::unique_ptr<tnp::vision::ShowcaseApp> app;
  std::int64_t pass_runs = 0, plans = 0;
  const double setup_s = MedianSetupSeconds([&] {
    app.reset();
    const auto start = Clock::now();
    const std::int64_t passes0 = CounterValue("relay/pass_runs");
    const std::int64_t plans0 = CounterValue("neuron/plans");
    app = std::make_unique<tnp::vision::ShowcaseApp>();
    app->ProcessFrame(scenes[0].frames[0], 0);  // warm-up of both paths
    app->RunPipelined(scenes[0].scene, 2);
    const double seconds = MsSince(start) / 1000.0;
    pass_runs = CounterValue("relay/pass_runs") - passes0;
    plans = CounterValue("neuron/plans") - plans0;
    return seconds;
  });

  // Oracle: sequential ProcessFrame results; every timed frame, sequential
  // or pipelined, must equal them.
  std::int64_t faces = 0;
  for (SceneInput& input : scenes) {
    for (int f = 0; f < kFrames; ++f) {
      input.reference.push_back(app->ProcessFrame(input.frames[f], f));
      faces += static_cast<std::int64_t>(input.reference.back().results.size());
    }
  }
  report.Check(faces > 0);  // the cascade must reach the face models
  report.Note("faces_per_pass", std::to_string(faces));

  const ProcStats proc0 = ProcStats::Now();
  const Window untraced = Measure(*app, scenes,
                                  options.trace ? options.seconds / 2 : options.seconds, report,
                                  nullptr);
  const ProcStats proc1 = ProcStats::Now();
  const double pipelined_s = untraced.pipelined_ms / 1000.0;
  if (!options.trace) {
    report.SetEndToEnd(setup_s, untraced.frame_ms.BlockPercentile(50.0), untraced.frame_ms,
                       untraced.fps.Median(), untraced.ok,
                       untraced.attempted);
    report.Note("pipelined_frames", std::to_string(untraced.pipelined_frames));
    return report;
  }

  TraceFold fold;
  EnableTracing(1 << 17);
  Measure(*app, scenes, options.seconds / 2, report, &fold);
  DisableTracing();
  WriteTrace(options, fold);

  report.SetProcess(proc0, proc1, untraced.attempted);
  report.SetTrace(fold, untraced.frame_ms.Mean());
  report.Set("relay.pass_runs", static_cast<double>(pass_runs), "count");
  report.Set("neuron.plans", static_cast<double>(plans), "count");
  report.Set("memory.arena_peak_mb",
             tnp::support::metrics::Registry::Global().GetGauge("memory/arena/bytes").max() /
                 (1024.0 * 1024.0),
             "MiB");
  const double sequential_fps = 1000.0 / untraced.frame_ms.Mean();
  report.Set("pipeline.speedup", (untraced.pipelined_frames / pipelined_s) / sequential_fps, "x");

  // Stage busy time and lock wait per pipelined frame, from the traced run:
  // a stage's ":run" span covers its resource acquisition plus the stage
  // function, whose own span is the run span's only child.
  const double traced_frames = static_cast<double>(fold.units());  // one pipelined frame per
                                                                   // sequential frame
  double lock_wait = 0.0;
  for (const char* stage : kStages) {
    const std::string run = std::string("pipeline/") + stage + ":run";
    const double total = fold.all_total().count(run) ? fold.all_total().at(run) : 0.0;
    const double self = fold.all_self().count(run) ? fold.all_self().at(run) : 0.0;
    report.Set(std::string("pipeline.stage_busy_ms.") + stage, (total - self) / traced_frames,
               "ms");
    lock_wait += self;
  }
  report.Set("pipeline.lock_wait_ms", lock_wait / traced_frames, "ms");

  Samples faces_ms, bodies_ms;
  for (const SceneInput& input : scenes) {
    for (const tnp::NDArray& frame : input.frames) {
      auto t0 = Clock::now();
      const auto found_faces = tnp::vision::DetectFaces(frame);
      faces_ms.Add(MsSince(t0));
      t0 = Clock::now();
      const auto found_bodies = tnp::vision::DetectBodies(frame);
      bodies_ms.Add(MsSince(t0));
      report.Check(!found_faces.empty() && !found_bodies.empty());
    }
  }
  report.Set("vision.detect_faces_ms", faces_ms.Median(), "ms");
  report.Set("vision.detect_bodies_ms", bodies_ms.Median(), "ms");
  return report;
}

}  // namespace hostbench
