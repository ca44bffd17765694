// Neuron Runtime — executes a compiled NeuronPackage.
//
// Numerics run on the host: every operation is bound once, at compile or
// load time, to a kernels::KernelCall (NeuronPackage::calls) and invoked
// through kernels::Invoke, the same dispatcher the graph executor uses.
// Time is a static property of the package: EstimateLatency accounts it
// against the plan's devices through the analytic cost model, including
// CPU<->APU DMA transfers and a fixed per-invocation dispatch overhead.
// That overhead is what makes "a model partitioned into too many subgraphs"
// slow — the paper's Section 5.1 observation about the anti-spoofing model.
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "neuron/compiler.h"
#include "sim/timeline.h"
#include "support/arena.h"

namespace tnp {
namespace neuron {

/// Fixed cost of entering the Neuron runtime once (session dispatch, command
/// buffer setup). Paid per package invocation.
inline constexpr double kInvocationOverheadUs = 15.0;

/// Simulated time of one invocation of `package`: the invocation overhead,
/// each operation on its planned device, and the DMA transfers its
/// placement implies (residence tracking mirrors the planner).
sim::SimClock EstimateLatency(const NeuronPackage& package);

/// Per-caller execution state of one package: the arena backing its memory
/// plan, every operand bound to a fixed tensor (constants, arena views,
/// inputs) and every operation's operands resolved to those addresses.
/// Creating a session allocates once; every subsequent Run performs no heap
/// allocation. Not thread-safe — one session per executing thread at a
/// time; Run enforces this checkout/checkin discipline with an in-use guard
/// (session pools hand sessions out for exclusive use, and a violated guard
/// means two executors shared one lease). Sessions over one package share
/// it read-only, so they may run concurrently.
///
/// Outputs are views into the session's arena: contents stay valid until
/// the session's next Run (the views keep the arena bytes alive even after
/// the session is destroyed).
class NeuronExecutionSession {
 public:
  explicit NeuronExecutionSession(NeuronPackagePtr package);

  /// Execute the package on `inputs` (order matches model_inputs()).
  void Run(std::span<const NDArray* const> inputs);

  /// Model outputs (order matches model_outputs()), at fixed addresses.
  std::span<const NDArray* const> outputs() const { return outputs_; }

  /// EstimateLatency of the session's package, computed once.
  const sim::SimClock& estimate() const { return estimate_; }

 private:
  NeuronPackagePtr package_;
  support::Arena arena_;
  sim::SimClock estimate_;
  /// Indexed by OperandId: constants, arena views and the bound inputs.
  std::vector<NDArray> values_;
  /// Every operation's input operands, flattened in operation order.
  std::vector<const NDArray*> args_;
  std::vector<const NDArray*> outputs_;
  /// Set for the duration of a Run.
  std::atomic<bool> in_use_{false};
};

}  // namespace neuron
}  // namespace tnp
