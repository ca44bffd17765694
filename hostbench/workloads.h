// The four workloads and the model x flow mix two of them share.
#pragma once

#include <string>
#include <vector>

#include "core/flows.h"
#include "harness.h"
#include "relay/module.h"
#include "tensor/ndarray.h"

namespace hostbench {

/// Short flow token used in metric names (tvm, byoc-cpuapu, np-apu, ...).
const char* FlowToken(tnp::core::FlowKind flow);

struct MixEntry {
  const char* model;
  tnp::core::FlowKind flow;
};

/// zoo_infer's fixed mix at canonical size: small vs cache-busting weights,
/// f32 vs s8, depthwise vs dense conv, and all three flow families.
const std::vector<MixEntry>& ZooMix();

/// "<model>.<flow token>", the metric-name key of a mix entry.
std::string EntryKey(const MixEntry& entry);

struct ImportedModel {
  std::string name;
  tnp::relay::Module module;
  std::string input_name;
  tnp::NDArray input;  ///< seeded random input at canonical size
  bool quantized = false;
};

/// Emit and import every model of the mix (once each), adding the emit and
/// frontend-import wall times to the accumulators. Inputs derive from `seed`.
std::vector<ImportedModel> ImportMix(std::uint64_t seed, double* emit_ms, double* import_ms);

/// Index into ImportMix()'s result of the model a mix entry runs.
std::size_t ModelIndex(const MixEntry& entry);

/// Whether `actual` matches the reference: bit for bit when `bitwise` (s8
/// models, warm deploys), else within the whole-model f32 tolerance of the
/// relay pass tests (1e-3).
bool OutputMatches(const tnp::NDArray& actual, const tnp::NDArray& reference, bool bitwise);

/// Value of a process-wide registry counter.
std::int64_t CounterValue(const char* name);

Report RunZooInfer(const Options& options);
Report RunShowcaseStream(const Options& options);
Report RunServeBurst(const Options& options);
Report RunDeployWarm(const Options& options);

/// Write the first traced batch of a run as a Chrome trace under work_dir.
void WriteTrace(const Options& options, const TraceFold& fold);

}  // namespace hostbench
