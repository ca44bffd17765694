#include "core/nir.h"

#include <mutex>

#include "core/relay_to_neuron.h"
#include "neuron/runtime.h"
#include "relay/pass.h"
#include "support/trace.h"

namespace tnp {
namespace core {

std::vector<sim::Resource> PackageResources(const neuron::NeuronPackage& package) {
  bool cpu = false;
  bool apu = false;
  for (const sim::DeviceKind device : package.plan.placement) {
    if (sim::ResourceOf(device) == sim::Resource::kCpu) cpu = true;
    if (sim::ResourceOf(device) == sim::Resource::kApu) apu = true;
  }
  std::vector<sim::Resource> result;
  if (cpu) result.push_back(sim::Resource::kCpu);
  if (apu) result.push_back(sim::Resource::kApu);
  return result;
}

void NirExternalModule::AppendProfile(std::vector<relay::ProfileEntry>& out) const {
  const sim::CostModel cost_model(*package_->options.testbed);
  for (std::size_t i = 0; i < package_->model.operations().size(); ++i) {
    const neuron::Operation& op = package_->model.operations()[i];
    const sim::DeviceKind device = package_->plan.placement[i];
    const sim::OpDesc desc = neuron::DescribeOperation(package_->model, op);
    out.push_back(relay::ProfileEntry{std::string(name_) + "/" + NeuronOpTypeName(op.type),
                                      device, cost_model.OpMicros(desc, device), desc.macs});
  }
}

void EnsureNirCodegenRegistered() {
  static std::once_flag once;
  std::call_once(once, [] {
    relay::ExternalCodegenRegistry::Global().Register(
        "nir", [](const relay::FunctionPtr& fn, const std::string& global_name,
                  const relay::BuildOptions& build_options) -> relay::ExternalModulePtr {
          neuron::CompilerOptions compiler_options;
          const auto devices_it = build_options.external_config.find("nir.devices");
          if (devices_it != build_options.external_config.end()) {
            compiler_options.target = neuron::TargetConfig::FromString(devices_it->second);
          }
          const auto policy_it = build_options.external_config.find("nir.policy");
          if (policy_it != build_options.external_config.end()) {
            if (policy_it->second == "first") {
              compiler_options.policy = neuron::PlannerPolicy::kFirstDevice;
            } else if (policy_it->second == "dynamic") {
              compiler_options.policy = neuron::PlannerPolicy::kDynamic;
            }
          }
          compiler_options.testbed = build_options.testbed;

          TNP_TRACE_SCOPE("byoc.codegen", std::string("nir:") + global_name);

          // Types inside the extracted function must be inferred locally
          // (Build re-infers main, but external bodies are opaque to it).
          relay::InferFunctionTypes(fn);

          RelayToNeuronConverter converter;
          neuron::NeuronModel model = converter.Convert(fn);
          const neuron::NeuronCompiler compiler(compiler_options);
          return std::make_shared<NirExternalModule>(global_name,
                                                     compiler.Compile(std::move(model),
                                                                      global_name));
        });
  });
}

relay::Module PartitionForNir(const relay::Module& module, const NirOptions& options) {
  EnsureNirCodegenRegistered();
  support::TraceScope scope;
  if (scope.armed()) {
    scope.Begin("byoc.partition", "PartitionForNir",
                support::TraceArg("target", options.target.ToString()));
  }
  const std::vector<sim::DeviceKind> devices = options.target.Devices();
  const relay::Module prepared =
      relay::Sequential({relay::InferType(), relay::SimplifyExpr(), relay::FoldConstant(),
                         relay::InferType()})
          .Run(module);
  relay::Module partitioned =
      relay::PartitionGraph(prepared, "nir", [devices](const relay::Call& call) {
        return NirSupported(call, devices);
      });
  if (scope.armed()) {
    int regions = 0;
    for (const auto& [name, fn] : partitioned.functions()) {
      if (!fn->compiler().empty()) ++regions;
    }
    scope.AddArg(support::TraceArg("nir_regions", regions));
  }
  return partitioned;
}

relay::BuildOptions MakeBuildOptions(const NirOptions& options) {
  EnsureNirCodegenRegistered();
  relay::BuildOptions build_options;
  build_options.enable_fusion = options.enable_tvm_fusion;
  build_options.host_device = sim::DeviceKind::kTvmCpu;
  build_options.testbed = options.testbed;
  build_options.external_config["nir.devices"] = options.target.ToString();
  switch (options.policy) {
    case neuron::PlannerPolicy::kFirstDevice:
      build_options.external_config["nir.policy"] = "first";
      break;
    case neuron::PlannerPolicy::kDynamic:
      build_options.external_config["nir.policy"] = "dynamic";
      break;
    case neuron::PlannerPolicy::kGreedyCost:
      build_options.external_config["nir.policy"] = "greedy";
      break;
  }
  return build_options;
}

}  // namespace core
}  // namespace tnp
