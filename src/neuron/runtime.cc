#include "neuron/runtime.h"

#include "neuron/desc.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace tnp {
namespace neuron {

sim::SimClock EstimateLatency(const NeuronPackage& package) {
  const NeuronModel& model = package.model;
  const sim::CostModel cost_model(*package.options.testbed);
  sim::SimClock clock;
  clock.AddTransfer(0, kInvocationOverheadUs);  // session dispatch

  // Residence tracking mirrors the planner so transfer costs match the plan:
  // one bit per resource an operand's bytes currently live on.
  const auto bit = [](sim::Resource r) { return static_cast<std::uint8_t>(1u << static_cast<int>(r)); };
  std::vector<std::uint8_t> residence(model.operands().size(), 0);
  for (const OperandId id : model.model_inputs()) {
    residence[static_cast<std::size_t>(id)] |= bit(sim::Resource::kCpu);
  }
  TNP_CHECK_EQ(package.plan.placement.size(), model.operations().size());
  for (std::size_t op_index = 0; op_index < model.operations().size(); ++op_index) {
    const Operation& op = model.operations()[op_index];
    const sim::DeviceKind device = package.plan.placement[op_index];
    const sim::Resource resource = sim::ResourceOf(device);
    // DMA any non-resident inputs.
    for (const OperandId id : op.inputs) {
      const Operand& operand = model.operand(id);
      if (operand.kind == OperandKind::kConstant) continue;
      std::uint8_t& where = residence[static_cast<std::size_t>(id)];
      if ((where & bit(resource)) == 0) {
        clock.AddTransfer(
            operand.SizeBytes(),
            cost_model.TransferMicros(operand.SizeBytes(), sim::DeviceKind::kNeuronCpu,
                                      resource == sim::Resource::kApu
                                          ? sim::DeviceKind::kNeuronApu
                                          : sim::DeviceKind::kNeuronCpu) +
                (resource == sim::Resource::kApu
                     ? 0.0
                     : cost_model.TransferMicros(operand.SizeBytes(),
                                                 sim::DeviceKind::kNeuronApu,
                                                 sim::DeviceKind::kNeuronCpu)));
        where |= bit(resource);
      }
    }
    const sim::OpDesc desc = DescribeOperation(model, op);
    clock.AddOp(desc, device, cost_model.OpMicros(desc, device));
    for (const OperandId id : op.outputs) residence[static_cast<std::size_t>(id)] |= bit(resource);
  }
  // Download APU-resident outputs to host memory.
  for (const OperandId id : model.model_outputs()) {
    if ((residence[static_cast<std::size_t>(id)] & bit(sim::Resource::kCpu)) == 0) {
      const std::int64_t bytes = model.operand(id).SizeBytes();
      clock.AddTransfer(bytes, cost_model.TransferMicros(bytes, sim::DeviceKind::kNeuronApu,
                                                         sim::DeviceKind::kNeuronCpu));
    }
  }
  return clock;
}

NeuronExecutionSession::NeuronExecutionSession(NeuronPackagePtr package)
    : package_(std::move(package)),
      arena_("neuron/" + package_->name),
      estimate_(EstimateLatency(*package_)) {
  const NeuronModel& model = package_->model;
  const NeuronMemoryPlan& plan = package_->memory;
  TNP_CHECK_EQ(plan.operands.size(), model.operands().size());
  TNP_CHECK_EQ(package_->calls.size(), model.operations().size())
      << "package '" << package_->name << "' has unbound operations";
  arena_.Reserve(static_cast<std::size_t>(plan.arena_bytes));
  values_.resize(model.operands().size());
  for (std::size_t id = 0; id < model.operands().size(); ++id) {
    const Operand& operand = model.operands()[id];
    const OperandStorage& storage = plan.operands[id];
    if (operand.kind == OperandKind::kConstant) {
      values_[id] = operand.data;
    } else if (storage.kind == OperandStorage::Kind::kArena) {
      const std::size_t bytes = static_cast<std::size_t>(storage.bytes);
      values_[id] =
          NDArray::ViewOver(arena_.Data(static_cast<std::size_t>(storage.offset), bytes), bytes,
                            operand.shape, operand.dtype, arena_.handle());
      values_[id].set_quant(operand.quant);
    }
  }
  for (const Operation& op : model.operations()) {
    for (const OperandId id : op.inputs) args_.push_back(&values_[static_cast<std::size_t>(id)]);
  }
  for (const OperandId id : model.model_outputs()) {
    outputs_.push_back(&values_[static_cast<std::size_t>(id)]);
  }
}

void NeuronExecutionSession::Run(std::span<const NDArray* const> inputs) {
  const NeuronPackage& package = *package_;
  const NeuronModel& model = package.model;
  // Checkout/checkin discipline: a session backs its run with one shared
  // arena, so concurrent Runs against the same session would race on
  // operand storage. Catch that misuse here instead of corrupting tensors.
  TNP_CHECK(!in_use_.exchange(true, std::memory_order_acquire))
      << "NeuronExecutionSession used by two executors concurrently "
         "(sessions must be checked out for exclusive use)";
  struct Release {
    std::atomic<bool>& in_use;
    ~Release() { in_use.store(false, std::memory_order_release); }
  } release{in_use_};

  static support::metrics::Counter& executions =
      support::metrics::Registry::Global().GetCounter("neuron/executions");
  executions.Increment();
  support::TraceScope scope;
  if (scope.armed()) {
    scope.Begin("neuron.runtime", std::string("Execute:") + package.name,
                support::TraceArg("ops", static_cast<int>(model.operations().size())),
                support::TraceArg("sim_us", estimate_.total_us()));
  }

  TNP_CHECK_EQ(inputs.size(), model.model_inputs().size())
      << "NeuronRuntime: input count mismatch for package '" << package.name << "'";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Operand& operand = model.operand(model.model_inputs()[i]);
    const NDArray& input = *inputs[i];
    TNP_CHECK(input.defined());
    TNP_CHECK(input.shape() == operand.shape)
        << "input " << i << " shape " << input.shape().ToString() << " != operand "
        << operand.shape.ToString();
    TNP_CHECK(input.dtype() == operand.dtype);
    values_[static_cast<std::size_t>(model.model_inputs()[i])] = input;
  }
  std::size_t arg = 0;
  for (std::size_t op_index = 0; op_index < model.operations().size(); ++op_index) {
    const Operation& op = model.operations()[op_index];
    kernels::Invoke(package.calls[op_index], {args_.data() + arg, op.inputs.size()},
                    values_[static_cast<std::size_t>(op.outputs.at(0))]);
    arg += op.inputs.size();
  }
}

}  // namespace neuron
}  // namespace tnp
