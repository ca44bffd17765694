#include "serve/health.h"

#include <algorithm>
#include <climits>
#include <sstream>

#include "serve/attribution.h"
#include "support/debug_http.h"
#include "support/flight_recorder.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace tnp {
namespace serve {

namespace {

using support::metrics::Registry;

/// Built-in availability objective: at most 1% of submissions shed,
/// confirmed over the standard 5s/60s window pair.
support::slo::Objective BuiltinAvailability() {
  support::slo::Objective objective;
  objective.name = "availability";
  objective.target = 0.99;
  objective.bad_counter = "serve/shed";
  objective.total_counter = "serve/submitted";
  return objective;
}

std::string FormatSignals(const HealthSignals& signals) {
  std::ostringstream out;
  out << "burn=" << signals.worst_burn << " queue=" << signals.queue_saturation
      << " shed=" << signals.shed_fraction << " fallback=" << signals.fallback_fraction
      << " pool=" << signals.pool_saturation;
  return out.str();
}

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kUnhealthy: return "unhealthy";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(HealthOptions options,
                             support::timeseries::Collector* collector)
    : options_(std::move(options)),
      collector_(collector != nullptr ? collector
                                      : &support::timeseries::Collector::Global()),
      slo_(options_.slo, collector_) {
  if (!options_.enabled) return;
  slo_.AddObjective(BuiltinAvailability());
  for (const auto& objective : options_.objectives) slo_.AddObjective(objective);
  // Shed/fallback fractions read these windows directly (independent of any
  // SLO definition above).
  collector_->TrackCounter("serve/submitted");
  collector_->TrackCounter("serve/shed");
  collector_->TrackCounter("serve/fallback");
  Registry::Global().GetGauge("serve/health/state").Set(0.0);
}

HealthMonitor::~HealthMonitor() { Stop(); }

void HealthMonitor::SetSignalSource(std::function<void(HealthSignals*)> source) {
  std::lock_guard<std::mutex> lock(mutex_);
  signal_source_ = std::move(source);
}

void HealthMonitor::Start() {
  if (!options_.enabled || options_.auto_evaluate_period_ms <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (thread_running_) return;
  thread_running_ = true;
  thread_stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void HealthMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!thread_running_) return;
    thread_stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  thread_running_ = false;
}

void HealthMonitor::Loop() {
  const auto period = std::chrono::milliseconds(options_.auto_evaluate_period_ms);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!cv_.wait_for(lock, period, [this] { return thread_stop_; })) {
    lock.unlock();
    Evaluate();
    lock.lock();
  }
}

HealthState HealthMonitor::Evaluate() {
  if (!options_.enabled) return state();
  if (options_.auto_tick_collector) collector_->Tick();
  slo_.Evaluate();

  HealthSignals signals;
  signals.worst_burn = slo_.worst_burn();
  const int window_s = 5;
  const support::timeseries::RateSeries* submitted =
      collector_->FindCounter("serve/submitted");
  const support::timeseries::RateSeries* shed = collector_->FindCounter("serve/shed");
  const support::timeseries::RateSeries* fallback =
      collector_->FindCounter("serve/fallback");
  const std::int64_t submissions =
      submitted != nullptr ? submitted->Merge(window_s) : 0;
  if (submissions > 0) {
    if (shed != nullptr) {
      signals.shed_fraction = static_cast<double>(shed->Merge(window_s)) /
                              static_cast<double>(submissions);
    }
    if (fallback != nullptr) {
      signals.fallback_fraction =
          static_cast<double>(fallback->Merge(window_s)) /
          static_cast<double>(submissions);
    }
  }
  std::function<void(HealthSignals*)> source;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    source = signal_source_;
  }
  if (source) source(&signals);
  return Step(signals);
}

HealthState HealthMonitor::Evaluate(const HealthSignals& signals) {
  if (!options_.enabled) return state();
  slo_.Evaluate();  // keep the health/slo/* gauges live even under injection
  return Step(signals);
}

HealthState HealthMonitor::TargetState(const HealthSignals& signals) const {
  const HealthThresholds& t = options_.thresholds;
  auto vote = [](double value, double degraded, double unhealthy) {
    if (value >= unhealthy) return HealthState::kUnhealthy;
    if (value >= degraded) return HealthState::kDegraded;
    return HealthState::kHealthy;
  };
  HealthState target = vote(signals.worst_burn, t.degraded_burn, t.unhealthy_burn);
  target = std::max(target,
                    vote(signals.queue_saturation, t.degraded_queue, t.unhealthy_queue));
  target = std::max(target, vote(signals.shed_fraction, t.degraded_shed_fraction,
                                 t.unhealthy_shed_fraction));
  target = std::max(target, vote(signals.fallback_fraction,
                                 t.degraded_fallback_fraction,
                                 t.unhealthy_fallback_fraction));
  target = std::max(target, vote(signals.pool_saturation, t.degraded_pool,
                                 t.unhealthy_pool));
  return target;
}

HealthState HealthMonitor::Step(const HealthSignals& signals) {
  const HealthState target = TargetState(signals);
  HealthState from;
  HealthState to;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    last_signals_ = signals;
    from = state_.load(std::memory_order_relaxed);
    to = from;
    if (target > from) {
      // Escalation is immediate: overload has to tighten admission now.
      to = target;
      calm_ticks_ = 0;
    } else if (target < from) {
      // Recovery is hysteretic: one level per `recovery_ticks` consecutive
      // calm evaluations, so a noisy boundary cannot flap the state.
      if (++calm_ticks_ >= options_.thresholds.recovery_ticks) {
        to = static_cast<HealthState>(static_cast<int>(from) - 1);
        calm_ticks_ = 0;
      }
    } else {
      calm_ticks_ = 0;
    }
    if (to != from) {
      state_.store(to, std::memory_order_release);
      ++transitions_;
    }
  }
  Registry::Global().GetGauge("serve/health/state").Set(static_cast<double>(to));

  if (to != from) {
    const std::string detail = std::string(HealthStateName(from)) + "->" +
                               HealthStateName(to) + " " + FormatSignals(signals);
    Registry::Global().GetCounter("serve/health/transitions").Increment();
    TNP_TRACE_INSTANT("health", "state", support::TraceArg("from", HealthStateName(from)),
                      support::TraceArg("to", HealthStateName(to)),
                      support::TraceArg("burn", signals.worst_burn),
                      support::TraceArg("queue", signals.queue_saturation),
                      support::TraceArg("shed", signals.shed_fraction));
    TNP_LOG(INFO) << "health transition" << support::KV("from", HealthStateName(from))
                  << support::KV("to", HealthStateName(to))
                  << support::KV("signals", FormatSignals(signals));
    if (to == HealthState::kUnhealthy) {
      // One-shot: keep the trace ring's view of the moments before the
      // incident (cheap no-op while the recorder is disarmed).
      support::FlightRecorder::Global().RecordHealthTransition(detail);
    }
  }
  return to;
}

bool HealthMonitor::AdmitsPriority(int priority) const {
  return priority >= min_admit_priority();
}

int HealthMonitor::min_admit_priority() const {
  if (!options_.enabled || !options_.tighten_admission) return INT_MIN;
  switch (state()) {
    case HealthState::kHealthy: return INT_MIN;
    case HealthState::kDegraded: return options_.degraded_min_priority;
    case HealthState::kUnhealthy: return options_.unhealthy_min_priority;
  }
  return INT_MIN;
}

HealthSignals HealthMonitor::last_signals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_signals_;
}

std::int64_t HealthMonitor::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

std::string HealthMonitor::HealthzJson() const {
  const HealthState current = state();
  HealthSignals signals;
  std::int64_t transitions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    signals = last_signals_;
    transitions = transitions_;
  }
  std::ostringstream out;
  out << "{\"state\":\"" << HealthStateName(current) << "\""
      << ",\"serving\":" << (current != HealthState::kUnhealthy ? "true" : "false")
      << ",\"transitions\":" << transitions
      << ",\"min_admit_priority\":";
  const int min_priority = min_admit_priority();
  if (min_priority == INT_MIN) {
    out << "null";
  } else {
    out << min_priority;
  }
  out << ",\"signals\":{"
      << "\"worst_burn\":" << signals.worst_burn
      << ",\"queue_saturation\":" << signals.queue_saturation
      << ",\"shed_fraction\":" << signals.shed_fraction
      << ",\"fallback_fraction\":" << signals.fallback_fraction
      << ",\"pool_saturation\":" << signals.pool_saturation << "}";
  // Tail-latency attribution: which phase dominates p99 right now, and one
  // exemplar request id to chase it down with (null until the ledger has
  // completions).
  std::string worst_name;
  double worst_p99 = 0.0;
  std::uint64_t worst_exemplar = 0;
  if (attribution::Ledger::Global().WorstPhase(&worst_name, &worst_p99,
                                               &worst_exemplar)) {
    out << ",\"attribution\":{\"worst_phase\":\"" << worst_name << "\""
        << ",\"worst_phase_p99_us\":" << worst_p99
        << ",\"exemplar_req_id\":" << worst_exemplar << "}";
  } else {
    out << ",\"attribution\":null";
  }
  out << "}";
  return out.str();
}

void HealthMonitor::RegisterWith(support::DebugHttpServer& server) {
  server.Handle("/healthz", [this](const support::HttpRequest&) {
    support::HttpResponse response;
    response.content_type = "application/json";
    response.body = HealthzJson();
    response.status = state() == HealthState::kUnhealthy ? 503 : 200;
    return response;
  });
}

}  // namespace serve
}  // namespace tnp
