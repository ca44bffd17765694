#include "serve/attribution.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "support/debug_http.h"
#include "support/flight_recorder.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace tnp {
namespace serve {
namespace attribution {

namespace {

constexpr std::size_t kCompletionRing = 1024;
constexpr std::size_t kRetainedSlots = 16;
constexpr std::size_t kMaxRetainedSpans = 64;
constexpr double kAutoTailFloorUs = 1000.0;
constexpr double kAutoTailMeanFactor = 4.0;

/// One phase's fold state: a metrics::Histogram plus an exemplar ring, all
/// fixed storage so the Complete path never allocates.
struct PhaseState {
  support::metrics::Histogram histogram;
  std::array<Exemplar, kExemplarsPerPhase> exemplars{};

  void Fold(std::uint64_t req_id, double us) {
    histogram.Record(us);
    // Min-replacement: keep the kExemplarsPerPhase slowest requests seen.
    int min_index = 0;
    for (int i = 0; i < kExemplarsPerPhase; ++i) {
      if (exemplars[static_cast<std::size_t>(i)].req_id == 0) {
        exemplars[static_cast<std::size_t>(i)] = {req_id, us};
        return;
      }
      if (exemplars[static_cast<std::size_t>(i)].us <
          exemplars[static_cast<std::size_t>(min_index)].us) {
        min_index = i;
      }
    }
    if (us > exemplars[static_cast<std::size_t>(min_index)].us) {
      exemplars[static_cast<std::size_t>(min_index)] = {req_id, us};
    }
  }

  void Clear() {
    histogram.Reset();
    exemplars.fill(Exemplar{});
  }
};

PhaseSummary Summarize(const PhaseState& phase) {
  const support::metrics::HistogramSnapshot snapshot = phase.histogram.Snapshot();
  const support::metrics::HistogramSummary s = snapshot.Summarize();
  PhaseSummary summary;
  summary.count = s.count;
  summary.sum_us = snapshot.sum;
  summary.max_us = s.max;
  summary.mean_us = s.mean;
  summary.p50_us = s.p50;
  summary.p95_us = s.p95;
  summary.p99_us = s.p99;
  std::vector<Exemplar> exemplars;
  for (const Exemplar& exemplar : phase.exemplars) {
    if (exemplar.req_id != 0) exemplars.push_back(exemplar);
  }
  std::sort(exemplars.begin(), exemplars.end(),
            [](const Exemplar& a, const Exemplar& b) { return a.us > b.us; });
  summary.exemplars = std::move(exemplars);
  return summary;
}

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

void AppendDouble(std::string& out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  out += buffer;
}

void AppendSummaryJson(std::string& out, const PhaseSummary& summary) {
  out += "{\"count\":" + std::to_string(summary.count);
  out += ",\"mean_us\":";
  AppendDouble(out, summary.mean_us);
  out += ",\"p50_us\":";
  AppendDouble(out, summary.p50_us);
  out += ",\"p95_us\":";
  AppendDouble(out, summary.p95_us);
  out += ",\"p99_us\":";
  AppendDouble(out, summary.p99_us);
  out += ",\"max_us\":";
  AppendDouble(out, summary.max_us);
  out += ",\"exemplars\":[";
  bool first = true;
  for (const Exemplar& exemplar : summary.exemplars) {
    if (!first) out += ',';
    first = false;
    out += "{\"req_id\":" + std::to_string(exemplar.req_id) + ",\"us\":";
    AppendDouble(out, exemplar.us);
    out += "}";
  }
  out += "]}";
}

struct LedgerState {
  mutable std::mutex mutex;
  LedgerOptions options;

  std::array<PhaseState, kNumPhases> phases{};
  PhaseState end_to_end{};
  std::array<std::int64_t, 4> status_counts{};  ///< indexed by ServeStatus
  std::int64_t completed = 0;

  // Running mean of OK end-to-end latency: the automatic tail threshold.
  double ok_total_sum = 0.0;
  std::int64_t ok_count = 0;

  std::array<CompletionRecord, kCompletionRing> recent{};
  std::size_t recent_next = 0;
  std::size_t recent_count = 0;

  std::array<RetainedTrace, kRetainedSlots> retained{};
  std::size_t retained_next = 0;
  std::size_t retained_count = 0;
  std::uint64_t retained_seq = 0;  ///< newest-first ordering across wraps

  std::atomic<std::int64_t> alloc_events{0};

  double TailThresholdLocked() const {
    if (options.tail_slow_us > 0.0) return options.tail_slow_us;
    if (ok_count == 0) return kAutoTailFloorUs;
    return std::max(kAutoTailFloorUs,
                    kAutoTailMeanFactor * ok_total_sum / static_cast<double>(ok_count));
  }

  void ClearLocked() {
    for (PhaseState& phase : phases) phase.Clear();
    end_to_end.Clear();
    status_counts.fill(0);
    completed = 0;
    ok_total_sum = 0.0;
    ok_count = 0;
    recent_next = 0;
    recent_count = 0;
    for (RetainedTrace& trace : retained) trace = RetainedTrace{};
    retained_next = 0;
    retained_count = 0;
    retained_seq = 0;
    alloc_events.store(0, std::memory_order_relaxed);
  }
};

LedgerState& State() {
  static LedgerState* state = new LedgerState();  // outlives static teardown
  return *state;
}

const char* RetainReason(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "slow";
    case ServeStatus::kShed: return "shed";
    case ServeStatus::kExpired: return "expired";
    case ServeStatus::kError: return "error";
  }
  return "?";
}

/// The allocating tail path: pull this request's spans out of the tracer
/// ring (events recorded since admission whose req_id arg matches) into a
/// retained slot. Counted in alloc_events — steady state must never reach
/// here.
void RetainLocked(LedgerState& state, const PhaseStamps& stamps, ServeStatus status,
                  double total_us, const std::array<double, kNumPhases>& phase_us) {
  state.alloc_events.fetch_add(1, std::memory_order_relaxed);
  RetainedTrace& slot = state.retained[state.retained_next];
  state.retained_next = (state.retained_next + 1) % kRetainedSlots;
  if (state.retained_count < kRetainedSlots) ++state.retained_count;
  ++state.retained_seq;

  slot.req_id = stamps.req_id;
  slot.reason = RetainReason(status);
  slot.total_us = total_us;
  slot.phase_us = phase_us;
  slot.spans.clear();
  if (!state.options.retain_spans) return;

  support::Tracer& tracer = support::Tracer::Global();
  if (!tracer.enabled()) return;
  const std::string req_id_text = std::to_string(stamps.req_id);
  for (const support::TraceEvent& event : tracer.EventsSince(stamps.trace_seq)) {
    if (event.phase != support::TracePhase::kComplete) continue;
    if (event.ArgValue("req_id") != req_id_text) continue;
    RetainedSpan span;
    span.category = event.category;
    span.name = event.name;
    span.ts_us = event.ts_us;
    span.dur_us = event.dur_us;
    slot.spans.push_back(std::move(span));
    if (slot.spans.size() >= kMaxRetainedSpans) break;
  }
}

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kAdmission: return "admission";
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kBatchAssembly: return "batch_assembly";
    case Phase::kSessionAcquire: return "session_acquire";
    case Phase::kDeviceHold: return "device_hold";
    case Phase::kExecution: return "execution";
    case Phase::kResponse: return "response";
  }
  return "?";
}

std::array<double, kNumPhases> SplitPhases(const PhaseStamps& stamps,
                                           ServeStatus status, double end_us) {
  std::array<double, kNumPhases> out{};
  // Boundaries in pipeline order; [0] is the origin, [7] the completion.
  std::array<double, kNumPhases + 1> t = {
      stamps.submit_us,  stamps.queued_us,    stamps.pop_begin_us,
      stamps.popped_us,  stamps.session_us,   stamps.run_begin_us,
      stamps.run_end_us, end_us,
  };
  // Forward-fill unset boundaries and clamp monotonic: every phase is
  // non-negative and the durations sum to t[7] - t[0] exactly.
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] <= 0.0 || t[i] < t[i - 1]) t[i] = t[i - 1];
  }
  const double total = t[kNumPhases] - t[0];
  if (status == ServeStatus::kShed) {
    // Shed requests never dispatched: their whole (tiny) lifetime is the
    // admission decision.
    out[static_cast<std::size_t>(Phase::kAdmission)] = total;
    return out;
  }
  for (std::size_t k = 0; k < kNumPhases; ++k) out[k] = t[k + 1] - t[k];
  return out;
}

Ledger::Ledger() {
  // Surface the ledger in every flight-recorder dump: post-mortems see the
  // same phase/exemplar/retained view /attribution serves live.
  support::FlightRecorder::Global().SetSection(
      "attribution", [] { return Ledger::Global().ExportJson(); });
}

Ledger& Ledger::Global() {
  static Ledger* ledger = new Ledger();  // outlives static teardown
  return *ledger;
}

void Ledger::Configure(LedgerOptions options) {
  LedgerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.options = options;
  state.ClearLocked();
}

void Ledger::Reset() {
  LedgerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.ClearLocked();
}

void Ledger::Complete(const PhaseStamps& stamps, ServeStatus status, double end_us) {
  const std::array<double, kNumPhases> phase_us = SplitPhases(stamps, status, end_us);
  double total = 0.0;
  for (const double us : phase_us) total += us;

  LedgerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  ++state.completed;
  ++state.status_counts[static_cast<std::size_t>(status)];
  for (int k = 0; k < kNumPhases; ++k) {
    state.phases[static_cast<std::size_t>(k)].Fold(stamps.req_id,
                                                   phase_us[static_cast<std::size_t>(k)]);
  }
  state.end_to_end.Fold(stamps.req_id, total);
  if (status == ServeStatus::kOk) {
    state.ok_total_sum += total;
    ++state.ok_count;
  }

  CompletionRecord& record = state.recent[state.recent_next];
  state.recent_next = (state.recent_next + 1) % kCompletionRing;
  if (state.recent_count < kCompletionRing) ++state.recent_count;
  record.req_id = stamps.req_id;
  record.status = status;
  record.total_us = total;
  record.phase_us = phase_us;

  const bool tail =
      status != ServeStatus::kOk || total >= state.TailThresholdLocked();
  if (tail) RetainLocked(state, stamps, status, total, phase_us);
}

std::int64_t Ledger::completed() const {
  LedgerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.completed;
}

std::int64_t Ledger::alloc_events() const {
  return State().alloc_events.load(std::memory_order_relaxed);
}

PhaseSummary Ledger::Summarize(Phase phase) const {
  LedgerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return attribution::Summarize(state.phases[static_cast<std::size_t>(phase)]);
}

PhaseSummary Ledger::EndToEnd() const {
  LedgerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return attribution::Summarize(state.end_to_end);
}

bool Ledger::WorstPhase(std::string* name, double* p99_us,
                        std::uint64_t* exemplar_req_id) const {
  LedgerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  int worst = -1;
  double worst_p99 = -1.0;
  for (int k = 0; k < kNumPhases; ++k) {
    const support::metrics::Histogram& histogram =
        state.phases[static_cast<std::size_t>(k)].histogram;
    if (histogram.count() == 0) continue;
    const double p99 = histogram.Percentile(99.0);
    if (p99 > worst_p99) {
      worst_p99 = p99;
      worst = k;
    }
  }
  if (worst < 0) return false;
  if (name != nullptr) *name = PhaseName(static_cast<Phase>(worst));
  if (p99_us != nullptr) *p99_us = worst_p99;
  if (exemplar_req_id != nullptr) {
    *exemplar_req_id = 0;
    double best = -1.0;
    for (const Exemplar& exemplar : state.phases[static_cast<std::size_t>(worst)].exemplars) {
      if (exemplar.req_id != 0 && exemplar.us > best) {
        best = exemplar.us;
        *exemplar_req_id = exemplar.req_id;
      }
    }
  }
  return true;
}

std::vector<CompletionRecord> Ledger::RecentCompletions(std::size_t max) const {
  LedgerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<CompletionRecord> out;
  const std::size_t n = std::min(max, state.recent_count);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t index =
        (state.recent_next + kCompletionRing - 1 - i) % kCompletionRing;
    out.push_back(state.recent[index]);
  }
  return out;
}

std::vector<RetainedTrace> Ledger::RetainedTraces() const {
  LedgerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<RetainedTrace> out;
  out.reserve(state.retained_count);
  for (std::size_t i = 0; i < state.retained_count; ++i) {
    const std::size_t index =
        (state.retained_next + kRetainedSlots - 1 - i) % kRetainedSlots;
    out.push_back(state.retained[index]);
  }
  return out;
}

std::string Ledger::ExportJson() const {
  LedgerState& state = State();
  // Snapshot under the lock, render outside it.
  std::array<PhaseSummary, kNumPhases> phases;
  PhaseSummary end_to_end;
  std::array<std::int64_t, 4> status_counts{};
  std::int64_t completed = 0;
  std::int64_t alloc_events = 0;
  double tail_slow_us = 0.0;
  std::vector<RetainedTrace> retained;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    for (int k = 0; k < kNumPhases; ++k) {
      phases[static_cast<std::size_t>(k)] =
          attribution::Summarize(state.phases[static_cast<std::size_t>(k)]);
    }
    end_to_end = attribution::Summarize(state.end_to_end);
    status_counts = state.status_counts;
    completed = state.completed;
    alloc_events = state.alloc_events.load(std::memory_order_relaxed);
    tail_slow_us = state.TailThresholdLocked();
    retained.reserve(state.retained_count);
    for (std::size_t i = 0; i < state.retained_count; ++i) {
      const std::size_t index =
          (state.retained_next + kRetainedSlots - 1 - i) % kRetainedSlots;
      retained.push_back(state.retained[index]);
    }
  }

  std::string out = "{";
  out += "\"completed\":" + std::to_string(completed);
  out += ",\"ok\":" + std::to_string(status_counts[0]);
  out += ",\"shed\":" + std::to_string(status_counts[1]);
  out += ",\"expired\":" + std::to_string(status_counts[2]);
  out += ",\"error\":" + std::to_string(status_counts[3]);
  out += ",\"tail_slow_us\":";
  AppendDouble(out, tail_slow_us);
  out += ",\"alloc_events\":" + std::to_string(alloc_events);
  out += ",\"phases\":{";
  for (int k = 0; k < kNumPhases; ++k) {
    if (k > 0) out += ',';
    out += '"';
    out += PhaseName(static_cast<Phase>(k));
    out += "\":";
    AppendSummaryJson(out, phases[static_cast<std::size_t>(k)]);
  }
  out += "},\"end_to_end\":";
  AppendSummaryJson(out, end_to_end);

  std::string worst_name;
  double worst_p99 = 0.0;
  std::uint64_t worst_exemplar = 0;
  out += ",\"worst_phase\":";
  if (WorstPhase(&worst_name, &worst_p99, &worst_exemplar)) {
    AppendJsonString(out, worst_name);
    out += ",\"worst_phase_p99_us\":";
    AppendDouble(out, worst_p99);
    out += ",\"worst_phase_exemplar\":" + std::to_string(worst_exemplar);
  } else {
    out += "null,\"worst_phase_p99_us\":0,\"worst_phase_exemplar\":0";
  }

  out += ",\"retained\":[";
  bool first = true;
  for (const RetainedTrace& trace : retained) {
    if (!first) out += ',';
    first = false;
    out += "{\"req_id\":" + std::to_string(trace.req_id);
    out += ",\"reason\":";
    AppendJsonString(out, trace.reason);
    out += ",\"total_us\":";
    AppendDouble(out, trace.total_us);
    out += ",\"phases\":{";
    for (int k = 0; k < kNumPhases; ++k) {
      if (k > 0) out += ',';
      out += '"';
      out += PhaseName(static_cast<Phase>(k));
      out += "\":";
      AppendDouble(out, trace.phase_us[static_cast<std::size_t>(k)]);
    }
    out += "},\"spans\":[";
    bool first_span = true;
    for (const RetainedSpan& span : trace.spans) {
      if (!first_span) out += ',';
      first_span = false;
      out += "{\"category\":";
      AppendJsonString(out, span.category);
      out += ",\"name\":";
      AppendJsonString(out, span.name);
      out += ",\"ts_us\":";
      AppendDouble(out, span.ts_us);
      out += ",\"dur_us\":";
      AppendDouble(out, span.dur_us);
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void RegisterAttributionEndpoints(support::DebugHttpServer& server) {
  server.Handle("/attribution", [](const support::HttpRequest&) {
    support::HttpResponse response;
    response.content_type = "application/json";
    response.body = Ledger::Global().ExportJson();
    return response;
  });
}

}  // namespace attribution
}  // namespace serve
}  // namespace tnp
