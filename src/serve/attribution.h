// Per-request critical-path attribution: where did each admitted request's
// latency actually go?
//
// The server stamps a small trivially-copyable PhaseStamps record (riding
// inside QueuedRequest, so it crosses the queue's thread handoff for free)
// with monotonic boundary timestamps as the request moves through the
// pipeline. At completion, Ledger::Complete folds the stamps into seven
// named phases:
//
//   admission        Submit entry -> queued (routing, health gate, push)
//   queue_wait       queued -> the pump's TryPopBatch call that took it
//   batch_assembly   pop begin -> batch handed to RunBatch (straggler window)
//   session_acquire  batch start -> SessionPool checkout returned
//   device_hold      session held -> this request's own run begins
//                    (ResourceLocks wait + earlier batch members' runs)
//   execution        the request's own SetInput/Run/GetOutput
//   response         run end -> promise fulfilled
//
// Unset stamps forward-fill and every boundary clamps monotonic, so the
// phase durations ALWAYS sum exactly to the ledger's end-to-end time — the
// decomposition is conservative and complete by construction. Requests shed
// at admission attribute their whole lifetime to `admission`.
//
// The fold path is alloc-free: each phase folds into a metrics::Histogram
// (the same fixed-bucket histogram, percentile routine and error bound as
// the registry's), p95/p99 exports carry *exemplars* (the req_ids of the
// slowest requests per phase, kept in fixed min-replacement rings), and
// recent per-request records sit in a fixed ring for tests and debugging. The only allocating branch is
// tail-based trace retention — keeping the full span tree for slow / shed /
// expired / error requests — which runs only for that tail and counts every
// excursion in `alloc_events` (bench-gated at zero for the steady state).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "serve/request.h"

namespace tnp {
namespace support {
class DebugHttpServer;
}  // namespace support

namespace serve {
namespace attribution {

enum class Phase : int {
  kAdmission = 0,
  kQueueWait,
  kBatchAssembly,
  kSessionAcquire,
  kDeviceHold,
  kExecution,
  kResponse,
};
constexpr int kNumPhases = 7;
const char* PhaseName(Phase phase);

/// Boundary timestamps (server clock, microseconds) stamped as the request
/// flows; zero = "never reached". Trivially copyable on purpose: it travels
/// inside QueuedRequest through the bounded queues with no extra
/// allocation.
struct PhaseStamps {
  std::uint64_t req_id = 0;
  double submit_us = 0.0;     ///< Submit entry (== QueuedRequest::enqueue_us)
  double queued_us = 0.0;     ///< about to TryPush into a queue
  double pop_begin_us = 0.0;  ///< the pump's TryPopBatch call began
  double popped_us = 0.0;     ///< batch handed to RunBatch
  double session_us = 0.0;    ///< SessionPool checkout returned
  double run_begin_us = 0.0;  ///< this request's own dispatch began
  double run_end_us = 0.0;    ///< this request's own run finished
  /// Tracer sequence at admission: tail retention replays only events
  /// recorded after this point when pulling the request's span tree.
  std::uint64_t trace_seq = 0;
};
static_assert(std::is_trivially_copyable_v<PhaseStamps>,
              "PhaseStamps rides QueuedRequest across thread handoffs");

struct Exemplar {
  std::uint64_t req_id = 0;
  double us = 0.0;
};
constexpr int kExemplarsPerPhase = 4;

/// Aggregate view of one phase (or of end-to-end latency).
struct PhaseSummary {
  std::int64_t count = 0;
  double sum_us = 0.0;
  double max_us = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  /// Slowest requests of this phase, worst-first; at most
  /// kExemplarsPerPhase entries, zero req_ids filtered out.
  std::vector<Exemplar> exemplars;
};

/// One completed request, as retained in the recent-completions ring.
struct CompletionRecord {
  std::uint64_t req_id = 0;
  ServeStatus status = ServeStatus::kOk;
  double total_us = 0.0;  ///< ledger end-to-end (completion - submit)
  std::array<double, kNumPhases> phase_us{};
};

/// A span kept by tail-based retention (copied out of the tracer ring).
struct RetainedSpan {
  std::string category;
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

struct RetainedTrace {
  std::uint64_t req_id = 0;
  const char* reason = "";  ///< "slow" | "shed" | "expired" | "error"
  double total_us = 0.0;
  std::array<double, kNumPhases> phase_us{};
  std::vector<RetainedSpan> spans;  ///< empty when tracing is disabled
};

struct LedgerOptions {
  /// End-to-end latency at which an OK request counts as tail-slow and its
  /// span tree is retained. 0 = automatic: 4x the running mean of completed
  /// OK requests, floored at 1000us, so retention self-scales to the
  /// workload instead of needing per-deployment tuning.
  double tail_slow_us = 0.0;
  /// Keep span trees at all (phase records are always retained).
  bool retain_spans = true;
};

/// Process-wide attribution ledger. Complete() is the only hot-path entry:
/// one mutex acquisition plus fixed-array arithmetic, no heap in steady
/// state.
class Ledger {
 public:
  static Ledger& Global();

  /// Replace options and clear all folded state (not a hot-path call).
  void Configure(LedgerOptions options);
  /// Clear folded state, keep options.
  void Reset();

  /// Fold one finished request. `end_us` is the completion time on the same
  /// clock as the stamps (InferenceServer::NowUs).
  void Complete(const PhaseStamps& stamps, ServeStatus status, double end_us);

  std::int64_t completed() const;
  /// Heap allocations taken on the Complete path (tail retention only) —
  /// the bench gate's numerator, together with the profiler's counter.
  std::int64_t alloc_events() const;

  PhaseSummary Summarize(Phase phase) const;
  PhaseSummary EndToEnd() const;

  /// The phase with the largest p99 among phases with samples. Returns
  /// false when nothing completed yet.
  bool WorstPhase(std::string* name, double* p99_us,
                  std::uint64_t* exemplar_req_id) const;

  /// Newest-first recent completions (bounded by the fixed ring).
  std::vector<CompletionRecord> RecentCompletions(std::size_t max = 64) const;
  /// Newest-first retained tail traces.
  std::vector<RetainedTrace> RetainedTraces() const;

  /// Deterministic-schema JSON (served at /attribution): keys always
  /// present, phases in declaration order:
  ///   {"completed":N,"ok":N,"shed":N,"expired":N,"error":N,
  ///    "tail_slow_us":X,"alloc_events":N,
  ///    "phases":{"admission":{"count":..,"mean_us":..,"p50_us":..,
  ///              "p95_us":..,"p99_us":..,"max_us":..,
  ///              "exemplars":[{"req_id":..,"us":..}, ...]}, ...},
  ///    "end_to_end":{...same shape...},
  ///    "worst_phase":"..."|null,
  ///    "retained":[{"req_id":..,"reason":"..","total_us":..,
  ///                 "phases":{...},"spans":[{"category":..,"name":..,
  ///                 "ts_us":..,"dur_us":..}, ...]}, ...]}
  std::string ExportJson() const;

 private:
  Ledger();
};

/// Split `stamps` + `end_us` into the seven phase durations (forward-filled,
/// monotonically clamped — the sum equals `end_us - stamps.submit_us`
/// exactly). Exposed for tests; Complete uses it internally.
std::array<double, kNumPhases> SplitPhases(const PhaseStamps& stamps,
                                           ServeStatus status, double end_us);

/// Register the /attribution endpoint (Ledger::Global's ExportJson).
void RegisterAttributionEndpoints(support::DebugHttpServer& server);

}  // namespace attribution
}  // namespace serve
}  // namespace tnp
