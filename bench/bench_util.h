// Shared helpers for the figure/table reproduction harnesses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "relay/pass.h"
#include "support/metrics.h"
#include "support/string_util.h"
#include "support/table.h"
#include "zoo/zoo.h"

namespace tnp {
namespace bench {

/// Build options used by the latency benches: canonical input resolution,
/// full width, reduced block-repeat depth (keeps graphs representative while
/// bounding compile time; the static simulator never executes numerics).
inline zoo::ZooOptions BenchOptions() {
  zoo::ZooOptions options;
  options.depth = 0.5;
  return options;
}

/// Format microseconds as "12.34" (milliseconds, 2 decimals).
inline std::string Ms(double us) { return support::FormatDouble(us / 1000.0, 2); }

/// Format a byte count as "123.4" KiB.
inline std::string Kib(double bytes) { return support::FormatDouble(bytes / 1024.0, 1); }

/// Memory behaviour of one steady-state inference run.
struct MemoryStats {
  std::int64_t allocs_per_run = 0;       ///< tensor heap allocations in one run
  std::int64_t alloc_bytes_per_run = 0;  ///< bytes those allocations requested
  double peak_arena_bytes = 0.0;         ///< high watermark of live arena bytes
};

/// Measure the memory behaviour of `run` in steady state: one warmup call
/// (first runs may bind buffers lazily), then one call bracketed by the
/// process-wide tensor allocation counters. Pre-planned sessions report
/// allocs_per_run == 0 — every intermediate lives in an arena reserved at
/// session creation.
inline MemoryStats MeasureRunMemory(const std::function<void()>& run) {
  run();  // warmup
  const std::int64_t allocs_before = NDArray::TotalAllocations();
  const std::int64_t bytes_before = NDArray::TotalAllocatedBytes();
  run();
  MemoryStats stats;
  stats.allocs_per_run = NDArray::TotalAllocations() - allocs_before;
  stats.alloc_bytes_per_run = NDArray::TotalAllocatedBytes() - bytes_before;
  const support::metrics::Gauge* arena =
      support::metrics::Registry::Global().FindGauge("memory/arena/bytes");
  stats.peak_arena_bytes = arena != nullptr ? arena->max() : 0.0;
  return stats;
}

/// Reset the arena high-watermark gauge. Call between measurements, while no
/// session is alive, so each model reports its own peak.
inline void ResetArenaWatermark() {
  support::metrics::Registry::Global().GetGauge("memory/arena/bytes").Reset();
}

/// Bind an all-zero tensor of each declared input's shape/dtype (numerics
/// are irrelevant to memory measurements).
inline void BindZeroInputs(const core::InferenceSessionPtr& session,
                           const relay::Module& module) {
  const relay::Module typed =
      relay::Sequential({relay::InferType()}).Run(module);
  for (const auto& param : typed.main()->params()) {
    const auto& type = param->checked_type().AsTensor();
    session->SetInput(param->name(), NDArray::Zeros(type.shape, type.dtype));
  }
}

/// One row of a Figure-4/6 style table: model x 7 flow permutations, with
/// "--" where compilation fails (the paper's missing bars). Latencies come
/// from the metrics registry (the gauges the trace-driven ProfileModel
/// published); hand-built profiles without a metrics_prefix fall back to
/// the latency map.
inline std::vector<std::string> FlowRow(const std::string& label,
                                        const core::ModelProfile& profile) {
  std::vector<std::string> row = {label};
  for (const core::FlowKind flow : core::kAllFlows) {
    const support::metrics::Gauge* gauge =
        profile.metrics_prefix.empty()
            ? nullptr
            : support::metrics::Registry::Global().FindGauge(
                  profile.metrics_prefix + "/" + core::FlowName(flow) + "/us");
    if (gauge != nullptr) {
      row.push_back(Ms(gauge->value()));
      continue;
    }
    const auto it = profile.latency_us.find(flow);
    row.push_back(it == profile.latency_us.end() ? "--" : Ms(it->second));
  }
  return row;
}

/// Exact statistics of repeated wall-clock measurements, microseconds.
struct RepetitionStats {
  double min = 0.0;
  double median = 0.0;  ///< nearest-rank
  double stddev = 0.0;  ///< population standard deviation
};

/// Run `fn` `repetitions` times and summarize the wall-clock latencies from
/// the raw samples (not a bucketed histogram), so close measurements stay
/// distinguishable.
inline RepetitionStats MeasureRepetitions(int repetitions, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < repetitions; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  RepetitionStats stats;
  if (samples.empty()) return stats;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double sample : samples) {
    sum += sample;
    sum_sq += sample * sample;
  }
  const double n = static_cast<double>(samples.size());
  const double mean = sum / n;
  stats.stddev = std::sqrt(std::max(0.0, sum_sq / n - mean * mean));
  stats.min = *std::min_element(samples.begin(), samples.end());
  const auto median = samples.begin() + static_cast<std::ptrdiff_t>((samples.size() - 1) / 2);
  std::nth_element(samples.begin(), median, samples.end());
  stats.median = *median;
  return stats;
}

/// "min / median / stddev" table cells (milliseconds) for a measurement.
inline std::vector<std::string> RepetitionCells(const RepetitionStats& stats) {
  return {Ms(stats.min), Ms(stats.median), Ms(stats.stddev)};
}

inline std::vector<std::string> FlowHeader(const std::string& first) {
  std::vector<std::string> header = {first};
  for (const core::FlowKind flow : core::kAllFlows) header.push_back(core::FlowName(flow));
  return header;
}

/// Print the per-flow failure reasons below a table (what the paper's prose
/// explains: NeuroPilot does not support as many AI operations as TVM).
inline void PrintUnsupportedReasons(std::ostream& os, const core::ModelProfile& profile) {
  for (const auto& [flow, error] : profile.errors) {
    // Keep only the first line of the error.
    std::string reason = error;
    const auto newline = reason.find('\n');
    if (newline != std::string::npos) reason = reason.substr(0, newline);
    os << "    " << profile.model << " @ " << core::FlowName(flow) << ": " << reason << "\n";
  }
}

}  // namespace bench
}  // namespace tnp
