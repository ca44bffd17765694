#include "support/slo.h"

#include <algorithm>

#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace tnp {
namespace support {
namespace slo {

const char* AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kOk: return "ok";
    case AlertState::kWarning: return "warning";
    case AlertState::kCritical: return "critical";
  }
  return "unknown";
}

SloTracker::SloTracker(SloTrackerOptions options, timeseries::Collector* collector)
    : options_(options),
      collector_(collector != nullptr ? collector : &timeseries::Collector::Global()),
      worst_burn_gauge_(&metrics::Registry::Global().GetGauge("health/slo/worst_burn")) {}

void SloTracker::AddObjective(Objective objective) {
  TNP_CHECK(!objective.name.empty()) << "SLO objective needs a name";
  TNP_CHECK(objective.target > 0.0 && objective.target < 1.0)
      << "SLO target must be in (0, 1), got " << objective.target;
  TNP_CHECK(objective.short_window_s > 0 &&
            objective.long_window_s >= objective.short_window_s)
      << "SLO windows must satisfy 0 < short <= long";
  if (!objective.histogram.empty()) {
    collector_->TrackHistogram(objective.histogram);
  } else {
    TNP_CHECK(!objective.bad_counter.empty() && !objective.total_counter.empty())
        << "SLO objective '" << objective.name
        << "' needs either a histogram or a bad/total counter pair";
    collector_->TrackCounter(objective.bad_counter);
    collector_->TrackCounter(objective.total_counter);
  }
  auto& registry = metrics::Registry::Global();
  const std::string prefix = "health/slo/" + objective.name;
  Tracked tracked;
  tracked.burn_short = &registry.GetGauge(prefix + "/burn_short");
  tracked.burn_long = &registry.GetGauge(prefix + "/burn_long");
  tracked.alert_gauge = &registry.GetGauge(prefix + "/alert");
  tracked.transitions = &registry.GetCounter(prefix + "/transitions");
  tracked.objective = std::move(objective);
  std::lock_guard<std::mutex> lock(mutex_);
  objectives_.push_back(std::move(tracked));
}

std::size_t SloTracker::num_objectives() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return objectives_.size();
}

double SloTracker::ErrorFraction(const Tracked& tracked, int window_s) const {
  const Objective& objective = tracked.objective;
  if (!objective.histogram.empty()) {
    const timeseries::LatencySeries* series =
        collector_->FindHistogram(objective.histogram);
    if (series == nullptr) return 0.0;
    return 1.0 - series->Merge(window_s).FractionBelow(objective.threshold_us);
  }
  const timeseries::RateSeries* bad = collector_->FindCounter(objective.bad_counter);
  const timeseries::RateSeries* total = collector_->FindCounter(objective.total_counter);
  if (bad == nullptr || total == nullptr) return 0.0;
  const std::int64_t total_events = total->Merge(window_s);
  if (total_events <= 0) return 0.0;  // no traffic = no errors
  const std::int64_t bad_events = std::min(bad->Merge(window_s), total_events);
  return static_cast<double>(bad_events) / static_cast<double>(total_events);
}

std::vector<ObjectiveStatus> SloTracker::Evaluate() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ObjectiveStatus> statuses;
  statuses.reserve(objectives_.size());
  double worst_burn = 0.0;
  AlertState worst_alert = AlertState::kOk;

  for (Tracked& tracked : objectives_) {
    const Objective& objective = tracked.objective;
    const double budget = 1.0 - objective.target;

    ObjectiveStatus status;
    status.name = objective.name;
    status.burn_short = ErrorFraction(tracked, objective.short_window_s) / budget;
    status.burn_long = ErrorFraction(tracked, objective.long_window_s) / budget;

    // Multiwindow AND: both windows must burn for the alert to fire, and
    // both must cool for it to clear.
    const double confirmed = status.effective_burn();
    if (confirmed >= options_.critical_burn) {
      status.alert = AlertState::kCritical;
    } else if (confirmed >= options_.warning_burn) {
      status.alert = AlertState::kWarning;
    } else {
      status.alert = AlertState::kOk;
    }

    if (status.alert != tracked.alert) {
      TNP_TRACE_INSTANT("health", "slo:" + objective.name,
                        TraceArg("from", AlertStateName(tracked.alert)),
                        TraceArg("to", AlertStateName(status.alert)),
                        TraceArg("burn_short", status.burn_short),
                        TraceArg("burn_long", status.burn_long));
      TNP_LOG(INFO) << "slo alert transition" << KV("objective", objective.name)
                    << KV("from", AlertStateName(tracked.alert))
                    << KV("to", AlertStateName(status.alert))
                    << KV("burn_short", status.burn_short)
                    << KV("burn_long", status.burn_long);
      tracked.transitions->Increment();
      tracked.alert = status.alert;
    }
    tracked.burn_short->Set(status.burn_short);
    tracked.burn_long->Set(status.burn_long);
    tracked.alert_gauge->Set(static_cast<double>(status.alert));

    worst_burn = std::max(worst_burn, confirmed);
    worst_alert = std::max(worst_alert, status.alert);
    statuses.push_back(std::move(status));
  }

  worst_burn_ = worst_burn;
  worst_alert_ = worst_alert;
  worst_burn_gauge_->Set(worst_burn);
  return statuses;
}

double SloTracker::worst_burn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return worst_burn_;
}

AlertState SloTracker::worst_alert() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return worst_alert_;
}

}  // namespace slo
}  // namespace support
}  // namespace tnp
