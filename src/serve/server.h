// In-process inference server: multiplexes many concurrent client request
// streams onto the one-CPU/one-APU device.
//
// Architecture (one instance = one device):
//
//   Submit ──► admission control ──► per-resource RequestQueue (CPU / APU)
//                   │ full?                        │ arms the queue's pump
//                   ├─ eligible: re-route to the   ▼
//                   │  scheduler's next-best   pump task per resource on the
//                   │  CPU-only flow (serve/     shared ThreadPool:
//                   │  fallback counter)          TryPopBatch (micro-batcher)
//                   └─ otherwise: shed            → SessionPool checkout
//                      (serve/shed counter)       → ResourceLocks::Acquire
//                                                 → run batch, answer futures
//
// The server owns no threads: each queue has an event-driven pump — an
// armed/dirty flag word plus at most one live pool task — that Submit arms
// on every successful push and that drains batches until the queue is
// empty. Batch execution therefore shares workers with the kernels it
// invokes (nested ParallelFor fans out on the same pool), and the
// ResourceLocks hold marks the task as blocking so the pool back-fills a
// spare worker while a batch occupies an exclusive device.
//
// Requests route to the queue of the primary resource their model's flow
// occupies (APU when the flow touches the APU, CPU otherwise). A CPU+APU
// flow dispatches from the APU queue but locks both resources while running,
// extending pipeline_executor.h's exclusivity discipline across all clients.
//
// Every layer publishes metrics: queue-depth gauges with high-watermarks,
// shed/fallback/expired counters, end-to-end latency histograms with
// p50/p95/p99 ("serve/request/us", per-model "serve/model/<name>/us"), and
// micro-batch size ("serve/batch/size").
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline_executor.h"
#include "core/scheduler.h"
#include "relay/module.h"
#include "serve/health.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/session_pool.h"
#include "support/metrics.h"
#include "support/thread_pool.h"

namespace tnp {
namespace serve {

/// One model the server offers, with the flows the scheduler assigned to it.
/// Build by hand (tests: pick flows directly) or via MakeServedModel (profile
/// all seven flows and take the scheduler's serving plan).
struct ServedModel {
  std::string name;
  relay::Module module;
  core::ServePlan plan;
  /// Resources the compiled model occupies per flow; missing entries derive
  /// conservatively from FlowResources(flow).
  std::map<core::FlowKind, std::vector<sim::Resource>> resources;
  core::FlowCompileSettings settings;
};

/// Profile `module` across all flows and serve it on the scheduler's plan.
ServedModel MakeServedModel(const std::string& name, relay::Module module,
                            const core::FlowCompileSettings& settings = {});

struct ServerOptions {
  /// Per-resource queue bound; admission beyond it sheds or falls back.
  std::size_t queue_capacity = 16;
  /// Micro-batcher: coalesce up to this many same-session requests per
  /// dispatch, waiting at most batch_window_us after the first request
  /// (0 = drain greedily, never wait).
  std::size_t max_batch = 4;
  double batch_window_us = 0.0;
  /// Warm sessions kept per model x flow.
  std::size_t sessions_per_flow = 1;
  /// Compile every session in the constructor so the request path never
  /// compiles (serving steady state starts warm).
  bool warm_start = true;
  /// Resource-exclusivity domain; nullptr = the process-wide Global()
  /// device. Inject a private instance to host several independent servers
  /// (= several simulated devices) in one process.
  core::ResourceLocks* locks = nullptr;
  /// Health state machine (serve/health.h). Enabled by default as pure
  /// observation; set health.tighten_admission to let Degraded/Unhealthy
  /// states shed low-priority requests at admission.
  HealthOptions health;
};

class InferenceServer {
 public:
  InferenceServer(std::vector<ServedModel> models, ServerOptions options = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Admit one request. Returns immediately; the future resolves when the
  /// request is served, shed, expired, or failed. Throws kInvalidArgument
  /// for unknown models.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Stop admitting, drain already-admitted requests, and wait for every
  /// pump task to retire. Idempotent; the destructor calls it.
  void Shutdown();

  /// Microseconds since server start (the clock Submit deadlines use).
  double NowUs() const;

  const ServedModel* FindModel(const std::string& name) const;
  const ServerOptions& options() const { return options_; }
  SessionPool& pool() { return pool_; }
  /// The server's health state machine; wired to the queues and pool via a
  /// signal source. Call health().Start() to run it on its own cadence, or
  /// health().Evaluate() from an existing one (tests, TelemetrySampler).
  HealthMonitor& health() { return *health_; }

 private:
  /// Queue a flow dispatches from: APU when the flow occupies it.
  std::size_t QueueIndexOf(const ServedModel& model, core::FlowKind flow) const;
  std::vector<sim::Resource> ResourcesOf(const ServedModel& model,
                                         core::FlowKind flow) const;
  /// Mark `queue_index`'s pump runnable, posting a pool task if none is
  /// live. Called on every successful push and at shutdown-drain.
  void ArmPump(std::size_t queue_index);
  /// The pump task body: drain batches until the queue is empty, then
  /// disarm (re-running immediately if an arm raced the disarm).
  void RunPump(std::size_t queue_index);
  void RunBatch(std::vector<QueuedRequest> batch, const std::string& queue_name);
  void Respond(QueuedRequest entry, ServeResponse response);

  static constexpr std::uint32_t kPumpArmed = 1u;
  static constexpr std::uint32_t kPumpDirty = 2u;

  /// The pump task payload: trivially copyable so it rides the pool's
  /// inline zero-allocation task slots.
  struct PumpTask {
    InferenceServer* server;
    std::size_t queue_index;
    void operator()() const { server->RunPump(queue_index); }
  };

  ServerOptions options_;
  struct ModelEntry {
    ServedModel model;
    /// "serve/model/<name>/us", resolved once per served model.
    support::metrics::Histogram* latency_us;
  };
  std::map<std::string, ModelEntry> models_;
  core::ResourceLocks* locks_;
  SessionPool pool_;
  std::unique_ptr<HealthMonitor> health_;
  std::size_t pool_capacity_ = 0;  ///< registered sessions (saturation denom)
  /// Indexed by sim::Resource value (kCpu, kApu).
  std::vector<std::unique_ptr<RequestQueue>> queues_;
  std::array<std::atomic<std::uint32_t>, sim::kNumResources> pump_state_{};
  std::chrono::steady_clock::time_point epoch_;
  bool shutdown_ = false;
  std::mutex shutdown_mutex_;
  /// Joins every pump task. Declared last: it is destroyed (= waited on)
  /// before any member a straggling pump could still touch.
  support::TaskGroup pump_tasks_;
};

}  // namespace serve
}  // namespace tnp
