#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

namespace hostbench {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(sorted.size()))) - 1;
  return sorted[index];
}

double Samples::Sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Samples::Mean() const { return values_.empty() ? 0.0 : Sum() / values_.size(); }

double Samples::BlockPercentile(double p) const {
  const std::size_t blocks = Blocks();
  const std::size_t per_block = values_.size() / blocks;
  Samples block_values;
  for (std::size_t b = 0; b < blocks; ++b) {
    Samples block;
    const std::size_t end = b + 1 == blocks ? values_.size() : (b + 1) * per_block;
    for (std::size_t i = b * per_block; i < end; ++i) block.Add(values_[i]);
    block_values.Add(block.Percentile(p));
  }
  return block_values.Median();
}

ProcStats ProcStats::Now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcStats stats;
  stats.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  stats.ctx_switches = usage.ru_nvcsw + usage.ru_nivcsw;
  return stats;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double MedianSetupSeconds(const std::function<double()>& setup) {
  Samples seconds;
  while (seconds.size() < kMinSetups ||
         (seconds.Sum() < kMinSetupTotalS && seconds.size() < kMaxSetups)) {
    seconds.Add(setup());
  }
  return seconds.Median();
}

void TraceFold::Drain() {
  auto& tracer = tnp::support::Tracer::Global();
  if (first_trace_.empty()) first_trace_ = tracer.ExportChromeTrace();
  std::vector<tnp::support::TraceEvent> events = tracer.Snapshot();
  // Recorded since the last clear but not in the snapshot: overwritten by
  // the ring, or recorded by another thread after the snapshot was taken.
  const std::uint64_t recorded = tracer.sequence();
  tracer.Clear();
  dropped_ += recorded - events.size();
  events_ += static_cast<std::int64_t>(events.size());

  std::map<int, std::vector<const tnp::support::TraceEvent*>> by_thread;
  std::vector<std::pair<double, double>> unit_spans, layer_spans;
  for (const auto& event : events) {
    if (event.phase != tnp::support::TracePhase::kComplete) continue;
    by_thread[event.tid].push_back(&event);
    const std::pair<double, double> span{event.ts_us, event.ts_us + event.dur_us};
    if (std::string_view(event.category) != kUnitCategory) {
      layer_spans.push_back(span);
    } else if (event.name.rfind("unit", 0) == 0) {
      unit_spans.push_back(span);
    }
  }
  // Union of the layer spans of every thread, clipped to each unit.
  std::sort(layer_spans.begin(), layer_spans.end());
  for (const auto& [begin, end] : unit_spans) {
    double covered_to = begin;
    for (const auto& [span_begin, span_end] : layer_spans) {
      if (span_begin >= end) break;
      const double from = std::max(span_begin, covered_to);
      const double to = std::min(span_end, end);
      if (to > from) {
        covered_ms_ += (to - from) / 1000.0;
        covered_to = to;
      }
    }
  }
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    struct Open {
      const tnp::support::TraceEvent* event;
      double end;
      double children = 0.0;
      bool in_unit;
      /// Layer the self time is charged to: a pool task run inline by the
      /// caller is the parallel body of the span that spawned it, so it is
      /// charged to that span's layer rather than to "pool".
      const tnp::support::TraceEvent* layer;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& open) {
      const double self = std::max(0.0, open.event->dur_us - open.children) / 1000.0;
      const std::string name = std::string(open.event->category) + "/" + open.event->name;
      all_self_[name] += self;
      all_total_[name] += open.event->dur_us / 1000.0;
      if (!open.in_unit) return;
      by_category_[open.layer->category] += self;
      by_name_[std::string(open.layer->category) + "/" + open.layer->name] += self;
    };
    for (const auto* event : spans) {
      while (!stack.empty() && stack.back().end <= event->ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      const bool is_unit = std::string_view(event->category) == kUnitCategory &&
                           event->name.rfind("unit", 0) == 0;
      bool in_unit = is_unit;
      const tnp::support::TraceEvent* layer = event;
      if (!stack.empty()) {
        Open& parent = stack.back();
        parent.children += std::min(event->dur_us, parent.end - event->ts_us);
        in_unit = in_unit || parent.in_unit;
        if (std::string_view(event->category) == "pool") layer = parent.layer;
      }
      if (is_unit && (stack.empty() || !stack.back().in_unit)) {
        unit_ms_ += event->dur_us / 1000.0;
        ++units_;
      }
      stack.push_back(Open{event, event->ts_us + event->dur_us, 0.0, in_unit, layer});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
}

double TraceFold::SelfMs(const std::string& category) const {
  const auto it = by_category_.find(category);
  return it == by_category_.end() ? 0.0 : it->second;
}

void Report::SetEndToEnd(double setup_s, double p50_ms, const Samples& latency,
                         double throughput_per_s, std::int64_t units_ok,
                         std::int64_t units_attempted) {
  Set("setup_s", setup_s, "s");
  Set("throughput_per_s", throughput_per_s, "1/s");
  Set("p50_ms", p50_ms, "ms");
  Set("p95_ms", latency.BlockPercentile(95.0), "ms");
  Set("ok_frac",
      units_attempted == 0 ? 0.0
                           : static_cast<double>(units_ok) / static_cast<double>(units_attempted),
      "frac");
  Set("peak_rss_mb", PeakRssMb(), "MiB");
  Note("latency_samples", std::to_string(latency.size()));
  Note("percentile_blocks", std::to_string(latency.Blocks()));
}

void Report::SetProcess(const ProcStats& before, const ProcStats& after, std::int64_t units) {
  const double per = units > 0 ? 1.0 / static_cast<double>(units) : 0.0;
  Set("proc.cpu_s_per_op", (after.cpu_s - before.cpu_s) * per, "s");
  Set("proc.ctx_switches_per_op", static_cast<double>(after.ctx_switches - before.ctx_switches) * per,
      "count");
  Set("bench.samples", static_cast<double>(units), "count");
}

namespace {

/// Op class of a kernel span name (tracing names kernels by entry point).
std::string KernelClass(const std::string& kernel) {
  const bool s8 = kernel.find("S8") != std::string::npos;
  const char* dtype = s8 ? "_s8" : "_f32";
  if (kernel.find("Conv") != std::string::npos) return std::string("conv") + dtype;
  if (kernel.find("Dense") != std::string::npos) return std::string("dense") + dtype;
  if (kernel.find("Pool") != std::string::npos) return std::string("pool") + dtype;
  return "other";
}

}  // namespace

void Report::SetTrace(const TraceFold& fold, double untraced_unit_ms, bool all_threads) {
  const double units = static_cast<double>(std::max<std::int64_t>(fold.units(), 1));
  const double traced_unit_ms = fold.unit_ms() / units;
  Set("trace.dropped", static_cast<double>(fold.dropped()), "count");
  Set("trace.overhead_frac",
      untraced_unit_ms > 0.0 ? traced_unit_ms / untraced_unit_ms - 1.0 : 0.0, "frac");
  Set("trace.accounted_frac", fold.unit_ms() > 0.0 ? fold.covered_ms() / fold.unit_ms() : 0.0,
      "frac");

  std::map<std::string, double> classes = {{"conv_f32", 0.0}, {"conv_s8", 0.0},
                                           {"dense_f32", 0.0}, {"dense_s8", 0.0},
                                           {"pool_f32", 0.0}, {"pool_s8", 0.0}};
  double kernel_ms = 0.0;
  for (const auto& [name, ms] : all_threads ? fold.all_self() : fold.by_name()) {
    if (name.rfind("kernel/", 0) != 0) continue;
    kernel_ms += ms;
    const std::string op_class = KernelClass(name.substr(7));
    if (classes.count(op_class) != 0) classes[op_class] += ms;
  }
  for (const auto& [op_class, ms] : classes) Set("kernels.self_ms." + op_class, ms / units, "ms");
  Set("kernels.share", fold.unit_ms() > 0.0 ? kernel_ms / fold.unit_ms() : 0.0, "frac");
  double exec_ms = fold.unit_ms() - fold.SelfMs(kUnitCategory);
  if (all_threads) {
    exec_ms = 0.0;
    for (const auto& [name, ms] : fold.all_total()) {
      if (name.rfind("flow/Run:", 0) == 0) exec_ms += ms;
    }
  }
  Set("exec.overhead_ms", (exec_ms - kernel_ms) / units, "ms");
  for (const auto& [category, ms] : fold.by_category()) {
    Note("trace.self_ms." + category, std::to_string(ms / units));
  }
  Note("trace.events", std::to_string(fold.events()));
  Note("trace.units", std::to_string(fold.units()));
}

std::map<std::string, std::string> MachineFacts() {
  std::map<std::string, std::string> facts;
  facts["nproc"] = std::to_string(std::thread::hardware_concurrency());
  facts["build_type"] = HOSTBENCH_BUILD_TYPE;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string isa;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0 && facts.count("cpu") == 0) {
      facts["cpu"] = line.substr(line.find(':') + 2);
    }
    if (line.rfind("flags", 0) == 0) {
      std::istringstream flags(line.substr(line.find(':') + 1));
      std::string flag;
      while (flags >> flag) {
        for (const char* wanted : {"sse4_2", "avx", "avx2", "fma", "avx512f", "avx512_vnni",
                                   "avx_vnni", "avx512_bf16"}) {
          if (flag == wanted) isa += (isa.empty() ? "" : " ") + flag;
        }
      }
      break;
    }
  }
  facts["isa"] = isa;
  return facts;
}

double MedianOfMedians(const std::vector<Samples>& groups) {
  Samples medians;
  for (const Samples& group : groups) medians.Add(group.Median());
  return medians.Median();
}

double SpearmanRank(const std::vector<double>& a, const std::vector<double>& b) {
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> order(v.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
    std::vector<double> rank(v.size());
    for (std::size_t i = 0; i < order.size();) {
      std::size_t j = i;
      while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) ++j;
      for (std::size_t k = i; k <= j; ++k) rank[order[k]] = (static_cast<double>(i + j) / 2.0) + 1;
      i = j + 1;
    }
    return rank;
  };
  const std::vector<double> ra = ranks(a);
  const std::vector<double> rb = ranks(b);
  const double n = static_cast<double>(a.size());
  const double mean = (n + 1.0) / 2.0;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (ra[i] - mean) * (rb[i] - mean);
    va += (ra[i] - mean) * (ra[i] - mean);
    vb += (rb[i] - mean) * (rb[i] - mean);
  }
  return va > 0.0 && vb > 0.0 ? cov / std::sqrt(va * vb) : 0.0;
}

void EnableTracing(std::size_t capacity) {
  auto& tracer = tnp::support::Tracer::Global();
  tracer.SetCapacity(capacity);
  tracer.Clear();
  tracer.SetEnabled(true);
}

void DisableTracing() { tnp::support::Tracer::Global().SetEnabled(false); }

}  // namespace hostbench
