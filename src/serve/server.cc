#include "serve/server.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <utility>

#include "serve/attribution.h"
#include "support/flight_recorder.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/profiler.h"
#include "support/trace.h"
#include "support/trace_context.h"

namespace tnp {
namespace serve {

namespace {

using support::metrics::Registry;

support::metrics::Counter& Submitted() {
  static auto& counter = Registry::Global().GetCounter("serve/submitted");
  return counter;
}
support::metrics::Counter& Shed() {
  static auto& counter = Registry::Global().GetCounter("serve/shed");
  return counter;
}
support::metrics::Counter& Fallbacks() {
  static auto& counter = Registry::Global().GetCounter("serve/fallback");
  return counter;
}
support::metrics::Counter& Expired() {
  static auto& counter = Registry::Global().GetCounter("serve/expired");
  return counter;
}
/// Per-priority shed attribution ("serve/shed/p<N>") — what the bench and
/// the health layer use to check that tightening spares high priorities.
void RecordShedAt(int priority) {
  Shed().Increment();
  Registry::Global().GetCounter("serve/shed/p" + std::to_string(priority)).Increment();
  // Overload signal: arms the flight recorder's shed-storm detector (cheap
  // no-op while the recorder is disarmed).
  support::FlightRecorder::Global().RecordShed();
}
support::metrics::Counter& Completed() {
  static auto& counter = Registry::Global().GetCounter("serve/completed");
  return counter;
}

/// Admitted request ids of a batch as "id1,id2,..." — the batch span's link
/// to its member requests (evaluated only when tracing is enabled).
std::string JoinRequestIds(const std::vector<QueuedRequest>& batch) {
  std::string out;
  for (const auto& entry : batch) {
    if (!out.empty()) out += ",";
    out += std::to_string(entry.trace.req_id);
  }
  return out;
}

/// Copy `src` into the caller-provided `dst` when compatible; returns false
/// (leaving dst untouched) on shape/dtype mismatch.
bool CopyIntoBuffer(const NDArray& src, NDArray& dst) {
  if (!dst.defined() || dst.dtype() != src.dtype() || !(dst.shape() == src.shape())) {
    return false;
  }
  std::memcpy(dst.RawData(), src.RawData(), src.SizeBytes());
  dst.set_quant(src.quant());
  return true;
}

}  // namespace

ServedModel MakeServedModel(const std::string& name, relay::Module module,
                            const core::FlowCompileSettings& settings) {
  const core::ModelProfile profile = core::ProfileModel(module, name, settings);
  ServedModel served;
  served.name = name;
  served.module = std::move(module);
  served.plan = core::ComputationScheduler::PlanForServing(profile);
  served.resources = profile.resources;
  served.settings = settings;
  return served;
}

InferenceServer::InferenceServer(std::vector<ServedModel> models, ServerOptions options)
    : options_(options),
      locks_(options.locks != nullptr ? options.locks : &core::ResourceLocks::Global()),
      epoch_(std::chrono::steady_clock::now()) {
  TNP_CHECK(!models.empty()) << "server needs at least one model";
  TNP_TRACE_SCOPE("serve", "InferenceServer::start");

  for (auto& model : models) {
    const std::string name = model.name;
    auto& latency_us = Registry::Global().GetHistogram("serve/model/" + name + "/us");
    TNP_CHECK(models_.emplace(name, ModelEntry{std::move(model), &latency_us}).second)
        << "duplicate served model '" << name << "'";
  }

  for (const auto& [name, entry] : models_) {
    const ServedModel& model = entry.model;
    std::vector<core::FlowKind> flows = {model.plan.primary.flow};
    if (model.plan.cpu_fallback.has_value()) flows.push_back(model.plan.cpu_fallback->flow);
    for (const core::FlowKind flow : flows) {
      const relay::Module module = model.module;
      const core::FlowCompileSettings settings = model.settings;
      pool_.Register(
          SessionKey(name, flow),
          [module, flow, settings] { return core::CompileFlow(module, flow, settings); },
          options_.sessions_per_flow);
      pool_capacity_ += options_.sessions_per_flow;
    }
  }
  if (options_.warm_start) pool_.WarmUp();

  queues_.resize(sim::kNumResources);
  for (int r = 0; r < sim::kNumResources; ++r) {
    std::string name = sim::ResourceName(static_cast<sim::Resource>(r));
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    queues_[static_cast<std::size_t>(r)] =
        std::make_unique<RequestQueue>(name, options_.queue_capacity);
  }
  health_ = std::make_unique<HealthMonitor>(options_.health);
  health_->SetSignalSource([this](HealthSignals* signals) {
    for (const auto& queue : queues_) {
      if (queue->capacity() == 0) continue;
      signals->queue_saturation =
          std::max(signals->queue_saturation,
                   static_cast<double>(queue->size()) /
                       static_cast<double>(queue->capacity()));
    }
    if (pool_capacity_ > 0) {
      signals->pool_saturation =
          Registry::Global().GetGauge("serve/pool/in_flight").value() /
          static_cast<double>(pool_capacity_);
    }
  });
}

InferenceServer::~InferenceServer() { Shutdown(); }

void InferenceServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  if (health_ != nullptr) health_->Stop();
  for (auto& queue : queues_) queue->Close();
  // Arm every pump once after closing: whatever is still queued gets
  // drained even if the pump had gone idle, and TaskGroup::Wait joins the
  // lot (the waiting thread help-executes pending pump tasks, so shutdown
  // completes even on a saturated pool).
  for (std::size_t r = 0; r < queues_.size(); ++r) ArmPump(r);
  pump_tasks_.Wait();
}

double InferenceServer::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   epoch_)
      .count();
}

const ServedModel* InferenceServer::FindModel(const std::string& name) const {
  const auto it = models_.find(name);
  return it != models_.end() ? &it->second.model : nullptr;
}

std::vector<sim::Resource> InferenceServer::ResourcesOf(const ServedModel& model,
                                                        core::FlowKind flow) const {
  const auto it = model.resources.find(flow);
  return it != model.resources.end() ? it->second : core::FlowResources(flow);
}

std::size_t InferenceServer::QueueIndexOf(const ServedModel& model,
                                          core::FlowKind flow) const {
  for (const sim::Resource resource : ResourcesOf(model, flow)) {
    if (resource == sim::Resource::kApu) {
      return static_cast<std::size_t>(sim::Resource::kApu);
    }
  }
  return static_cast<std::size_t>(sim::Resource::kCpu);
}

std::future<ServeResponse> InferenceServer::Submit(ServeRequest request) {
  const ServedModel* model = FindModel(request.model);
  if (model == nullptr) {
    TNP_THROW(kInvalidArgument) << "no served model named '" << request.model << "'";
  }
  Submitted().Increment();

  QueuedRequest entry;
  entry.flow = model->plan.primary.flow;
  entry.session_key = SessionKey(request.model, entry.flow);
  entry.enqueue_us = NowUs();
  // Mint the request's trace identity at admission; it travels inside the
  // QueuedRequest across the queue's thread handoff, so every span the
  // request causes — here, at dispatch, inside the session — carries the
  // same req_id in the export.
  entry.trace = support::TraceContext::NewRequest();
  entry.trace_enqueue_us = support::Tracer::Global().NowUs();
  // Attribution stamps: submit_us anchors the phase decomposition, trace_seq
  // remembers where this request's spans start in the tracer's ring so the
  // ledger can retain the span tree of a slow request at completion.
  entry.stamps.req_id = entry.trace.req_id;
  entry.stamps.submit_us = entry.enqueue_us;
  entry.stamps.trace_seq = support::Tracer::Global().sequence();
  entry.request = std::move(request);
  std::future<ServeResponse> future = entry.promise.get_future();

  const std::string model_name = entry.request.model;
  const int priority = entry.request.priority;
  support::TraceContextScope trace_scope(entry.trace);

  // Health admission gate: while Degraded/Unhealthy (and tightening is
  // enabled) requests below the state's minimum priority shed immediately,
  // before they can displace higher-priority work in the queues.
  if (health_ != nullptr && !health_->AdmitsPriority(priority)) {
    RecordShedAt(priority);
    TNP_TRACE_INSTANT("serve.request", "shed", support::TraceArg("model", model_name),
                      support::TraceArg("priority", priority),
                      support::TraceArg("health",
                                        HealthStateName(health_->state())));
    TNP_LOG(DEBUG) << "shed by health gate" << support::KV("model", model_name)
                   << support::KV("priority", priority)
                   << support::KV("state", HealthStateName(health_->state()));
    ServeResponse response;
    response.status = ServeStatus::kShed;
    Respond(std::move(entry), std::move(response));
    return future;
  }

  const std::size_t primary_queue = QueueIndexOf(*model, entry.flow);
  entry.stamps.queued_us = NowUs();
  if (queues_[primary_queue]->TryPush(entry)) {
    TNP_TRACE_INSTANT("serve.request", "submit", support::TraceArg("model", model_name),
                      support::TraceArg("priority", priority),
                      support::TraceArg("queue", queues_[primary_queue]->name()));
    ArmPump(primary_queue);
    return future;
  }

  // Admission control. The primary queue is saturated: degrade eligible
  // requests to the scheduler's next-best CPU-only flow (a different queue,
  // the same answer, more latency), and shed explicitly otherwise — bounded
  // queues never grow to hide overload.
  if (model->plan.cpu_fallback.has_value()) {
    const core::FlowKind fallback_flow = model->plan.cpu_fallback->flow;
    const std::size_t fallback_queue = QueueIndexOf(*model, fallback_flow);
    if (fallback_queue != primary_queue) {
      entry.flow = fallback_flow;
      entry.session_key = SessionKey(entry.request.model, fallback_flow);
      entry.fell_back = true;
      entry.stamps.queued_us = NowUs();
      if (queues_[fallback_queue]->TryPush(entry)) {
        Fallbacks().Increment();
        TNP_TRACE_INSTANT("serve.request", "submit",
                          support::TraceArg("model", model_name),
                          support::TraceArg("priority", priority),
                          support::TraceArg("queue", queues_[fallback_queue]->name()),
                          support::TraceArg("fell_back", true));
        ArmPump(fallback_queue);
        return future;
      }
    }
  }

  RecordShedAt(priority);
  TNP_TRACE_INSTANT("serve.request", "shed", support::TraceArg("model", model_name),
                    support::TraceArg("priority", priority));
  TNP_LOG(DEBUG) << "shed at admission" << support::KV("model", model_name)
                 << support::KV("priority", priority);
  ServeResponse response;
  response.status = ServeStatus::kShed;
  Respond(std::move(entry), std::move(response));
  return future;
}

void InferenceServer::ArmPump(std::size_t queue_index) {
  const std::uint32_t old =
      pump_state_[queue_index].fetch_or(kPumpArmed | kPumpDirty);
  if ((old & kPumpArmed) == 0) {
    pump_tasks_.Run(PumpTask{this, queue_index});
  }
}

void InferenceServer::RunPump(std::size_t queue_index) {
  support::profiler::LabelScope prof_label("serve:pump");
  std::atomic<std::uint32_t>& state = pump_state_[queue_index];
  RequestQueue& queue = *queues_[queue_index];
  for (;;) {
    state.fetch_and(~kPumpDirty);
    for (;;) {
      std::vector<QueuedRequest> batch;
      const double pop_begin_us = NowUs();
      {
        // The straggler window (batch_window_us) parks this worker inside
        // TryPopBatch; declare it so the pool back-fills a spare.
        support::ThreadPool::BlockingScope blocking;
        batch = queue.TryPopBatch(options_.max_batch, options_.batch_window_us);
      }
      if (batch.empty()) break;
      const double popped_us = NowUs();
      for (auto& entry : batch) {
        entry.stamps.pop_begin_us = pop_begin_us;
        entry.stamps.popped_us = popped_us;
      }
      RunBatch(std::move(batch), queue.name());
    }
    std::uint32_t expected = kPumpArmed;
    if (state.compare_exchange_strong(expected, 0)) return;
    // An arm raced the drain: go around again so no push is ever stranded.
  }
}

void InferenceServer::RunBatch(std::vector<QueuedRequest> batch,
                               const std::string& queue_name) {
  support::profiler::LabelScope prof_label("serve:batch");
  static auto& batch_size_hist = Registry::Global().GetHistogram("serve/batch/size");
  static auto& queue_wait_hist = Registry::Global().GetHistogram("serve/queue_wait/us");
  static auto& run_hist = Registry::Global().GetHistogram("serve/run/us");
  static auto& request_hist = Registry::Global().GetHistogram("serve/request/us");

  // Drop entries whose deadline passed while queued. Expiry is recorded per
  // deadline class: "serve/expired/p<priority>/late_us" histograms how far
  // past its deadline each dropped request of that priority was.
  std::vector<QueuedRequest> live;
  live.reserve(batch.size());
  for (auto& entry : batch) {
    const double deadline = entry.request.deadline_us;
    const double now = NowUs();
    if (deadline > 0.0 && now > deadline) {
      Expired().Increment();
      Registry::Global()
          .GetHistogram("serve/expired/p" + std::to_string(entry.request.priority) +
                        "/late_us")
          .Record(now - deadline);
      support::TraceContextScope trace_scope(entry.trace);
      TNP_TRACE_INSTANT("serve.request", "expired",
                        support::TraceArg("model", entry.request.model),
                        support::TraceArg("priority", entry.request.priority),
                        support::TraceArg("late_us", now - deadline));
      TNP_LOG(DEBUG) << "expired in queue" << support::KV("model", entry.request.model)
                     << support::KV("priority", entry.request.priority)
                     << support::KV("late_us", now - deadline);
      ServeResponse response;
      response.status = ServeStatus::kExpired;
      Respond(std::move(entry), std::move(response));
      continue;
    }
    live.push_back(std::move(entry));
  }
  if (live.empty()) return;

  batch_size_hist.Record(static_cast<double>(live.size()));
  // By value: entries are moved into Respond() while the loop still runs.
  const std::string session_key = live.front().session_key;
  const auto model_it = models_.find(live.front().request.model);
  TNP_CHECK(model_it != models_.end());
  const ServedModel* model = &model_it->second.model;
  support::metrics::Histogram& model_hist = *model_it->second.latency_us;
  const core::FlowKind flow = live.front().flow;

  // The batch span links every member request: a micro-batched request's
  // critical path crosses this shared span, so the span lists all member
  // req_ids instead of claiming a single owner.
  TNP_TRACE_SCOPE("serve", "batch:" + session_key,
                  support::TraceArg("batch", static_cast<int>(live.size())),
                  support::TraceArg("req_ids", JoinRequestIds(live)));

  SessionPool::Lease lease = [&] {
    // Checkout can wait for a session to come back; declare the park so the
    // pool keeps its target concurrency while we do.
    support::ThreadPool::BlockingScope blocking;
    return pool_.Checkout(session_key);
  }();
  {
    const double session_us = NowUs();
    for (auto& entry : live) entry.stamps.session_us = session_us;
  }

  // Exclusive-resource discipline across all clients: hold every resource
  // the flow occupies, in fixed order (same protocol — and the same lock
  // domain unless one was injected — as the pipeline executor). The hold
  // also declares this pump task blocking, so the pool back-fills a spare
  // worker while the batch occupies the device.
  core::ResourceLocks::Hold hold = locks_->Acquire(ResourcesOf(*model, flow));

  for (auto& entry : live) {
    // Explicit handoff: re-install the context minted at admission, so the
    // spans below — and everything the session nests under them (flow run,
    // GraphExecutor, Neuron execute, kernels) — tag this request.
    support::TraceContextScope trace_scope(entry.trace);
    const double dispatch_us = NowUs();
    entry.stamps.run_begin_us = dispatch_us;
    queue_wait_hist.Record(dispatch_us - entry.enqueue_us);
    // Queue-wait span, stamped retroactively now that the wait is over
    // (admission -> dispatch, in the tracer timebase).
    support::Tracer::Global().Emit(
        "serve.request", "queue:" + queue_name, entry.trace_enqueue_us,
        support::Tracer::Global().NowUs() - entry.trace_enqueue_us,
        {support::TraceArg("model", entry.request.model)});

    ServeResponse response;
    response.model = entry.request.model;
    response.flow = entry.flow;
    response.fell_back = entry.fell_back;
    response.batch_size = static_cast<int>(live.size());
    try {
      for (auto& [input_name, value] : entry.request.inputs) {
        lease->SetInput(input_name, value);
      }
      {
        TNP_TRACE_SCOPE("serve.request", "run:" + session_key,
                        support::TraceArg("fell_back", entry.fell_back));
        lease->Run();
      }
      response.sim_us = lease->EstimateLatency().total_us();
      const int num_outputs = lease->NumOutputs();
      response.outputs.reserve(static_cast<std::size_t>(num_outputs));
      for (int i = 0; i < num_outputs; ++i) {
        NDArray produced = lease->GetOutput(i);
        if (static_cast<std::size_t>(i) < entry.request.output_buffers.size() &&
            CopyIntoBuffer(produced, entry.request.output_buffers[static_cast<std::size_t>(i)])) {
          // Zero-allocation path: result lives in the caller's buffer, safe
          // past the session's next run.
          response.outputs.push_back(entry.request.output_buffers[static_cast<std::size_t>(i)]);
        } else {
          // No compatible buffer: deep-copy out of the session arena so the
          // response stays valid after the session is re-leased.
          response.outputs.push_back(produced.CopyDeep());
        }
      }
      response.status = ServeStatus::kOk;
      Completed().Increment();
    } catch (const std::exception& e) {
      response.status = ServeStatus::kError;
      response.error = e.what();
      response.outputs.clear();
    }

    const double end_us = NowUs();
    entry.stamps.run_end_us = end_us;
    response.queue_us = dispatch_us - entry.enqueue_us;
    response.run_us = end_us - dispatch_us;
    response.total_us = end_us - entry.enqueue_us;
    if (response.status == ServeStatus::kOk) {
      run_hist.Record(response.run_us);
      request_hist.Record(response.total_us);
      model_hist.Record(response.total_us);
    }
    Respond(std::move(entry), std::move(response));
  }
}

void InferenceServer::Respond(QueuedRequest entry, ServeResponse response) {
  response.client_id = entry.request.client_id;
  response.req_id = entry.trace.req_id;
  if (response.model.empty()) response.model = entry.request.model;
  if (response.total_us == 0.0) response.total_us = NowUs() - entry.enqueue_us;
  // Fold this request's lifetime into the attribution ledger before the
  // promise fires: the completion ring and phase histograms are consistent
  // by the time the client observes the response.
  attribution::Ledger::Global().Complete(entry.stamps, response.status, NowUs());
  entry.promise.set_value(std::move(response));
}

}  // namespace serve
}  // namespace tnp
