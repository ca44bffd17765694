// SLO objectives and multi-window burn-rate alerting over the windowed
// time-series surface (timeseries.h).
//
// An Objective declares what fraction of events must be good:
//
//   - latency form: "target of the samples in <histogram> complete under
//     threshold_us" (e.g. "99% of admitted p2 requests finish < 20ms"),
//     evaluated from the CDF of a tracked LatencySeries' window (the
//     histogram's bucket-count deltas over that window);
//   - availability form: "at most (1 - target) of <total_counter> events are
//     <bad_counter> events" (e.g. sheds per submission), evaluated from two
//     tracked RateSeries.
//
// Burn rate is SRE error-budget math: with budget = 1 - target, burn =
// observed_error_fraction / budget. Burn 1.0 spends the budget exactly at
// the sustainable rate; burn 10 exhausts a 30-day budget in 3 days. Each
// objective is evaluated over a paired short/long window and alerts only
// when BOTH burn above the threshold (multiwindow AND): the long window
// keeps one spike from paging, the short window clears the alert quickly
// once the bleeding stops. The effective burn of an objective is therefore
// min(short, long).
//
// Evaluate() publishes "health/slo/<name>/burn_short|burn_long|alert"
// gauges and emits a trace instant event on every alert transition, so the
// alert history lands in trace exports and flight-recorder dumps.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/timeseries.h"

namespace tnp {
namespace support {
namespace slo {

struct Objective {
  std::string name;     ///< gauge/trace key, e.g. "p2-latency", "availability"
  double target = 0.99; ///< required good fraction, in (0, 1)

  /// Latency form (used when `histogram` is non-empty): good = sample in
  /// the tracked "/us" histogram strictly below threshold_us.
  std::string histogram;
  double threshold_us = 0.0;

  /// Availability form (used when `histogram` is empty): good = total
  /// event that is not a bad event.
  std::string bad_counter;
  std::string total_counter;

  /// Paired evaluation windows, seconds (SRE-style short/long).
  int short_window_s = 5;
  int long_window_s = 60;
};

enum class AlertState { kOk = 0, kWarning = 1, kCritical = 2 };
const char* AlertStateName(AlertState state);

struct ObjectiveStatus {
  std::string name;
  double burn_short = 0.0;
  double burn_long = 0.0;
  AlertState alert = AlertState::kOk;
  /// min(burn_short, burn_long): the rate at which this objective is
  /// *confirmed* to be burning budget.
  double effective_burn() const {
    return burn_short < burn_long ? burn_short : burn_long;
  }
};

struct SloTrackerOptions {
  /// Both windows burning >= warning_burn -> kWarning; >= critical_burn ->
  /// kCritical. 1.0 = budget spent exactly at the sustainable rate.
  double warning_burn = 1.0;
  double critical_burn = 6.0;
};

class SloTracker {
 public:
  /// Series are tracked against `collector` (nullptr = the global one) as
  /// objectives are added.
  explicit SloTracker(SloTrackerOptions options = {},
                      timeseries::Collector* collector = nullptr);

  void AddObjective(Objective objective);
  std::size_t num_objectives() const;

  /// Evaluate every objective against the collector's current windows.
  /// Publishes health/slo/* gauges, emits trace instants + a structured log
  /// line on alert transitions, and returns the per-objective statuses.
  std::vector<ObjectiveStatus> Evaluate();

  /// Worst effective burn across objectives at the last Evaluate().
  double worst_burn() const;
  /// Worst alert state across objectives at the last Evaluate().
  AlertState worst_alert() const;

 private:
  /// One objective plus its health/slo/<name>/* metrics, resolved once in
  /// AddObjective so Evaluate() builds no metric names (registry entries
  /// live as long as the process).
  struct Tracked {
    Objective objective;
    AlertState alert = AlertState::kOk;
    metrics::Gauge* burn_short = nullptr;
    metrics::Gauge* burn_long = nullptr;
    metrics::Gauge* alert_gauge = nullptr;
    metrics::Counter* transitions = nullptr;
  };

  double ErrorFraction(const Tracked& tracked, int window_s) const;

  SloTrackerOptions options_;
  timeseries::Collector* collector_;
  metrics::Gauge* worst_burn_gauge_;
  mutable std::mutex mutex_;
  std::vector<Tracked> objectives_;
  double worst_burn_ = 0.0;
  AlertState worst_alert_ = AlertState::kOk;
};

}  // namespace slo
}  // namespace support
}  // namespace tnp
