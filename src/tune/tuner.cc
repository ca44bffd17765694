#include "tune/tuner.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <vector>

#include "kernels/gemm.h"
#include "kernels/scratch.h"
#include "support/logging.h"
#include "support/rng.h"

namespace tnp {
namespace tune {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since).count();
}

constexpr std::int64_t kKcCandidates[] = {128, 256, 384};
constexpr std::int64_t kNcCandidates[] = {96, 192, 384};

struct TileCandidate {
  std::int64_t mr;
  std::int64_t nr;
};
constexpr TileCandidate kF32Tiles[] = {{4, 8}, {6, 8}, {8, 4}, {4, 16}};

/// Exact nearest-rank median of `repetitions` timed runs of `fn`, one warmup
/// first. Exact rather than bucketed so that close candidate configs never
/// tie, and local so that concurrent TuneWorkload calls cannot interleave.
double MeasureMedianUs(int repetitions, const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(std::max(repetitions, 1)));
  fn();  // warmup: first touch of panels/output
  for (int i = 0; i < repetitions; ++i) {
    const auto start = Clock::now();
    fn();
    samples.push_back(ElapsedUs(start));
  }
  if (samples.empty()) return 0.0;
  const auto median = samples.begin() + static_cast<std::ptrdiff_t>((samples.size() - 1) / 2);
  std::nth_element(samples.begin(), median, samples.end());
  return *median;
}

}  // namespace

std::vector<kernels::GemmConfig> CandidateConfigs(DType dtype) {
  std::vector<kernels::GemmConfig> out;
  const kernels::GemmConfig fallback = kernels::DefaultGemmConfig(dtype);
  out.push_back(fallback);
  if (dtype == DType::kInt8) {
    for (const std::int64_t kc : kKcCandidates) {
      for (const std::int64_t nc : kNcCandidates) {
        const kernels::GemmConfig config{fallback.mr, fallback.nr, kc, nc, 1};
        if (config != fallback) out.push_back(config);
      }
    }
  } else {
    TNP_CHECK(dtype == DType::kFloat32);
    for (const TileCandidate tile : kF32Tiles) {
      for (const std::int64_t kc : kKcCandidates) {
        for (const std::int64_t nc : kNcCandidates) {
          for (const std::int64_t unroll : {std::int64_t{1}, std::int64_t{2}}) {
            const kernels::GemmConfig config{tile.mr, tile.nr, kc, nc, unroll};
            if (config != fallback) out.push_back(config);
          }
        }
      }
    }
  }
  for (const kernels::GemmConfig& config : out) {
    TNP_CHECK(kernels::IsValidGemmConfig(config, dtype))
        << "candidate space produced illegal config " << config.ToString();
  }
  return out;
}

TuneResult TuneWorkload(const Workload& workload, const TuneOptions& options,
                        double budget_us) {
  TNP_CHECK(workload.m > 0 && workload.k > 0 && workload.n > 0)
      << "cannot tune degenerate workload " << workload.Key();
  const auto start = Clock::now();
  const std::int64_t m = workload.m;
  const std::int64_t k = workload.k;
  const std::int64_t n = workload.n;
  const bool int8 = workload.dtype == DType::kInt8;
  const std::vector<kernels::GemmConfig> candidates = CandidateConfigs(workload.dtype);

  // Deterministic synthetic operands seeded from the key: the tuner's
  // timings are reproducible and independent of everything but the shape.
  support::SplitMix64 rng(support::StableHash(workload.Key()));

  TuneResult result;
  result.candidates_total = static_cast<int>(candidates.size());
  result.record.workload = workload;

  kernels::ScratchFrame frame;
  if (int8) {
    std::int8_t* a = frame.Alloc<std::int8_t>(m * k);
    std::int8_t* b = frame.Alloc<std::int8_t>(k * n);
    for (std::int64_t i = 0; i < m * k; ++i) {
      a[i] = static_cast<std::int8_t>(rng.UniformInt(-128, 127));
    }
    for (std::int64_t i = 0; i < k * n; ++i) {
      b[i] = static_cast<std::int8_t>(rng.UniformInt(-128, 127));
    }
    const std::int64_t k2 = kernels::PackedKS8(k);
    std::int8_t* ap =
        frame.Alloc<std::int8_t>(kernels::PackedExtent(m, kernels::kGemmMrS8) * k2);
    std::int8_t* bp =
        frame.Alloc<std::int8_t>(kernels::PackedExtent(n, kernels::kGemmNrS8) * k2);
    std::int32_t* c = frame.Alloc<std::int32_t>(m * n);
    // The s8 tile is fixed, so one packing serves every candidate.
    kernels::PackPanelsAS8(a, m, k, k, ap, nullptr);
    kernels::PackPanelsBS8(b, k, n, n, bp, nullptr);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (i > 0 && budget_us > 0.0 && ElapsedUs(start) >= budget_us) break;
      const kernels::GemmConfig& config = candidates[i];
      const double us = MeasureMedianUs(options.repetitions, [&] {
        kernels::GemmPackedS8S32(ap, bp, c, m, k, n, n, /*parallel=*/false, config);
      });
      if (i == 0) result.record.baseline_us = us;
      if (i == 0 || us < result.record.best_us) {
        result.record.best_us = us;
        result.record.config = config;
      }
      ++result.record.trials;
    }
  } else {
    float* a = frame.Alloc<float>(m * k);
    float* b = frame.Alloc<float>(k * n);
    for (std::int64_t i = 0; i < m * k; ++i) {
      a[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    for (std::int64_t i = 0; i < k * n; ++i) {
      b[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    // Panels sized for the worst case over the candidate tiles; repacked per
    // config. The widest tile is NOT the worst case: a narrower mr can pad to
    // more rows (ceil(m/6)*6 > ceil(m/8)*8 at m=8), so take the max over the
    // actual candidates rather than hard-coding one tile.
    std::int64_t ap_floats = 0;
    std::int64_t bp_floats = 0;
    for (const kernels::GemmConfig& config : candidates) {
      ap_floats = std::max(ap_floats, kernels::PackedExtent(m, config.mr) * k);
      bp_floats = std::max(bp_floats, kernels::PackedExtent(n, config.nr) * k);
    }
    float* ap = frame.Alloc<float>(ap_floats);
    float* bp = frame.Alloc<float>(bp_floats);
    float* c = frame.Alloc<float>(m * n);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (i > 0 && budget_us > 0.0 && ElapsedUs(start) >= budget_us) break;
      const kernels::GemmConfig& config = candidates[i];
      kernels::PackPanelsAF32(a, m, k, k, ap, config.mr);
      kernels::PackPanelsBF32(b, k, n, n, bp, config.nr);
      const double us = MeasureMedianUs(options.repetitions, [&] {
        kernels::GemmPackedF32(ap, bp, c, m, k, n, n, /*parallel=*/false, config);
      });
      if (i == 0) result.record.baseline_us = us;
      if (i == 0 || us < result.record.best_us) {
        result.record.best_us = us;
        result.record.config = config;
      }
      ++result.record.trials;
    }
  }
  result.exhausted = result.record.trials == result.candidates_total;
  return result;
}

int TuneAll(const std::vector<Workload>& workloads, TuningDb* db,
            const TuneOptions& options,
            const std::function<void(const TuneResult&)>& progress) {
  TNP_CHECK(db != nullptr);
  const auto start = Clock::now();
  const double budget_us = options.budget_ms * 1000.0;
  std::unordered_set<std::string> seen;
  int tuned = 0;
  for (const Workload& workload : workloads) {
    if (!seen.insert(workload.Key()).second) continue;
    if (!options.retune && db->Lookup(workload).has_value()) continue;
    const double remaining_us =
        budget_us > 0.0 ? budget_us - ElapsedUs(start) : 0.0;
    if (budget_us > 0.0 && remaining_us <= 0.0) break;
    const TuneResult result = TuneWorkload(workload, options, remaining_us);
    db->Put(result.record);
    ++tuned;
    if (progress) progress(result);
  }
  return tuned;
}

}  // namespace tune
}  // namespace tnp
