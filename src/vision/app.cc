#include "vision/app.h"

#include <chrono>

#include "core/pipeline_executor.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "vision/image.h"
#include "zoo/zoo.h"

namespace tnp {
namespace vision {

ShowcaseApp::ShowcaseApp(const ShowcaseConfig& config) : config_(config) {
  if (config_.run_object_model) {
    zoo::ZooOptions options;
    options.image_size = config_.object_image_size;
    options.width = config_.object_width;
    options.seed = config_.seed;
    const relay::Module ssd = zoo::Build("mobilenet_ssd_quant", options);
    detection_session_ = core::CompileFlow(ssd, config_.detection_flow, config_.compile);
  }
  antispoof_session_ =
      core::CompileFlow(AntiSpoofFunctionalModule(), config_.antispoof_flow, config_.compile);
  emotion_session_ =
      core::CompileFlow(EmotionFunctionalModule(), config_.emotion_flow, config_.compile);
}

FrameResult ShowcaseApp::DetectStage(const NDArray& frame, int frame_index,
                                     StageClocks& clocks) {
  TNP_TRACE_SCOPE("vision", "DetectStage", support::TraceArg("frame", frame_index));
  static support::metrics::Counter& frames =
      support::metrics::Registry::Global().GetCounter("vision/frames");
  frames.Increment();
  FrameResult result;
  result.frame_index = frame_index;
  result.faces = DetectFaces(frame);

  if (config_.run_object_model) {
    // Feed the frame (resized to the SSD input) through the object model.
    const NDArray ssd_input = ResizeBilinear(frame, config_.object_image_size,
                                             config_.object_image_size);
    detection_session_->SetInput("t0", ssd_input);
    detection_session_->Run();
    clocks.detection_us += detection_session_->EstimateLatency().total_us();
    if (config_.use_model_boxes) {
      SsdDecodeConfig decode;
      decode.image_size = frame.shape()[3];
      result.bodies = DecodeSsd(detection_session_->GetOutput(0),
                                detection_session_->GetOutput(1), decode);
    }
  }
  if (!config_.use_model_boxes) {
    result.bodies = DetectBodies(frame);
  }

  // The paper's candidate gate: a face box must overlap an object box. The
  // face box is inflated slightly — the classical detector returns *tight*
  // pattern boxes, and a face sitting flush on top of its body would
  // otherwise only touch, not overlap.
  for (const auto& face : result.faces) {
    const Box inflated{face.box.x - face.box.w * 0.15, face.box.y - face.box.h * 0.15,
                       face.box.w * 1.3, face.box.h * 1.3};
    for (const auto& body : result.bodies) {
      if (Overlaps(inflated, body.box)) {
        result.results.push_back(FaceResult{face.box, 0.0, false, -1});
        break;
      }
    }
  }
  result.num_candidates = static_cast<int>(result.results.size());
  return result;
}

void ShowcaseApp::AntiSpoofStage(const NDArray& frame, FrameResult& result,
                                 StageClocks& clocks) {
  TNP_TRACE_SCOPE("vision", "AntiSpoofStage",
                  support::TraceArg("faces", static_cast<int>(result.results.size())));
  for (auto& face : result.results) {
    const NDArray crop = FaceCrop48(frame, face.box);
    antispoof_session_->SetInput("face", crop);
    antispoof_session_->Run();
    clocks.antispoof_us += antispoof_session_->EstimateLatency().total_us();
    const NDArray score = antispoof_session_->GetOutput(0);
    face.antispoof_score = score.Data<float>()[0];
    face.spoof = IsSpoof(score);
  }
}

void ShowcaseApp::EmotionStage(const NDArray& frame, FrameResult& result,
                               StageClocks& clocks) {
  TNP_TRACE_SCOPE("vision", "EmotionStage",
                  support::TraceArg("faces", static_cast<int>(result.results.size())));
  for (auto& face : result.results) {
    if (face.spoof) continue;  // only real faces are emotion-classified
    const NDArray crop = FaceCrop48(frame, face.box);
    emotion_session_->SetInput("face", crop);
    emotion_session_->Run();
    clocks.emotion_us += emotion_session_->EstimateLatency().total_us();
    face.emotion = ArgmaxEmotion(emotion_session_->GetOutput(0));
  }
}

FrameResult ShowcaseApp::ProcessFrame(const NDArray& frame, int frame_index) {
  StageClocks clocks;
  FrameResult result = DetectStage(frame, frame_index, clocks);
  AntiSpoofStage(frame, result, clocks);
  EmotionStage(frame, result, clocks);
  return result;
}

RunSummary ShowcaseApp::RunSequential(const Scene& scene, int num_frames) {
  RunSummary summary;
  StageClocks clocks;
  const auto start = std::chrono::steady_clock::now();
  for (int f = 0; f < num_frames; ++f) {
    const NDArray frame = RenderFrame(scene, f);
    FrameResult result = DetectStage(frame, f, clocks);
    AntiSpoofStage(frame, result, clocks);
    EmotionStage(frame, result, clocks);
    summary.frames.push_back(std::move(result));
  }
  const auto end = std::chrono::steady_clock::now();
  summary.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  summary.sim_detection_ms = clocks.detection_us / 1000.0;
  summary.sim_antispoof_ms = clocks.antispoof_us / 1000.0;
  summary.sim_emotion_ms = clocks.emotion_us / 1000.0;
  return summary;
}

RunSummary ShowcaseApp::RunPipelined(const Scene& scene, int num_frames) {
  struct Packet {
    int frame_index = 0;
    NDArray frame;
    FrameResult result;
  };

  StageClocks clocks;
  std::mutex clock_mutex;

  using Pipeline = core::Pipeline<Packet>;
  std::vector<Pipeline::Stage> stages;
  // Lock the resources each compiled model *actually* occupies (a fully
  // offloaded emotion model holds only the APU, so it overlaps with the
  // CPU-resident object detection of the next frame).
  const auto detection_resources = detection_session_
                                       ? detection_session_->UsedResources()
                                       : std::vector<sim::Resource>{sim::Resource::kCpu};
  stages.push_back(Pipeline::Stage{
      "obj-det", detection_resources,
      [this, &clocks, &clock_mutex](Packet packet) -> std::optional<Packet> {
        StageClocks local;
        packet.result = DetectStage(packet.frame, packet.frame_index, local);
        std::lock_guard<std::mutex> lock(clock_mutex);
        clocks.detection_us += local.detection_us;
        return packet;
      }});
  stages.push_back(Pipeline::Stage{
      "anti-spoof", antispoof_session_->UsedResources(),
      [this, &clocks, &clock_mutex](Packet packet) -> std::optional<Packet> {
        StageClocks local;
        AntiSpoofStage(packet.frame, packet.result, local);
        std::lock_guard<std::mutex> lock(clock_mutex);
        clocks.antispoof_us += local.antispoof_us;
        return packet;
      }});
  stages.push_back(Pipeline::Stage{
      "emotion", emotion_session_->UsedResources(),
      [this, &clocks, &clock_mutex](Packet packet) -> std::optional<Packet> {
        StageClocks local;
        EmotionStage(packet.frame, packet.result, local);
        std::lock_guard<std::mutex> lock(clock_mutex);
        clocks.emotion_us += local.emotion_us;
        return packet;
      }});

  std::vector<Packet> packets;
  packets.reserve(static_cast<std::size_t>(num_frames));
  for (int f = 0; f < num_frames; ++f) {
    packets.push_back(Packet{f, RenderFrame(scene, f), FrameResult{}});
  }

  Pipeline pipeline(std::move(stages));
  const auto start = std::chrono::steady_clock::now();
  std::vector<Packet> processed = pipeline.Run(std::move(packets));
  const auto end = std::chrono::steady_clock::now();

  RunSummary summary;
  summary.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  summary.sim_detection_ms = clocks.detection_us / 1000.0;
  summary.sim_antispoof_ms = clocks.antispoof_us / 1000.0;
  summary.sim_emotion_ms = clocks.emotion_us / 1000.0;
  for (auto& packet : processed) summary.frames.push_back(std::move(packet.result));
  return summary;
}

double ShowcaseApp::DetectionStageUs() const {
  return detection_session_ ? detection_session_->EstimateLatency().total_us() : 0.0;
}

double ShowcaseApp::AntiSpoofStageUs() const {
  return antispoof_session_->EstimateLatency().total_us();
}

double ShowcaseApp::EmotionStageUs() const {
  return emotion_session_->EstimateLatency().total_us();
}

}  // namespace vision
}  // namespace tnp
