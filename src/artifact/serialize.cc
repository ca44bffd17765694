#include "artifact/serialize.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "artifact/bytes.h"
#include "artifact/file.h"
#include "core/nir.h"
#include "support/logging.h"
#include "support/metrics.h"

namespace tnp {
namespace artifact {
namespace {

// --------------------------------------------------------------- primitives

/// Enum tags are serialized as u8 and range-checked on read; a corrupt tag is
/// a parse error, never an out-of-enum value handed to a switch.
std::uint8_t CheckedTag(MetaReader& reader, std::uint8_t max, const char* what) {
  const std::uint8_t value = reader.U8();
  if (value > max) {
    TNP_THROW(kParseError) << "artifact META: invalid " << what << " tag "
                           << static_cast<int>(value);
  }
  return value;
}

DType ReadDType(MetaReader& reader) {
  return static_cast<DType>(
      CheckedTag(reader, static_cast<std::uint8_t>(DType::kBool), "dtype"));
}

/// Validate untrusted shape dims and return the element count without
/// overflow (hostile dims cannot drive a giant or wrapped multiply).
std::int64_t CheckedElements(const std::vector<std::int64_t>& dims) {
  constexpr std::int64_t kMaxElements = std::int64_t{1} << 40;
  std::int64_t elements = 1;
  for (const std::int64_t dim : dims) {
    if (dim < 0 || (dim != 0 && elements > kMaxElements / dim)) {
      TNP_THROW(kParseError) << "artifact META: implausible tensor dimension " << dim;
    }
    elements *= dim;
  }
  return elements;
}

void WriteQuant(MetaWriter& writer, const QuantParams& quant) {
  writer.Bool(quant.valid);
  writer.F32(quant.scale);
  writer.I32(quant.zero_point);
}

QuantParams ReadQuant(MetaReader& reader) {
  const bool valid = reader.Bool();
  const float scale = reader.F32();
  const std::int32_t zero_point = reader.I32();
  return valid ? QuantParams(scale, zero_point) : QuantParams::None();
}

// ----------------------------------------------------------------- tensors

/// Everything the loader needs to materialize views: the validated BLOB
/// section plus the mapping that keeps the bytes alive.
struct LoadContext {
  SectionView blob;
  std::shared_ptr<const MappedFile> mapping;
};

/// A tensor serializes as (blob offset, bytes) + shape/dtype/quant — the
/// payload goes into the BLOB section (deduplicated by storage identity) and
/// is never re-encoded.
void WriteTensor(MetaWriter& writer, ArtifactWriter& blob, const NDArray& tensor) {
  writer.Bool(tensor.defined());
  if (!tensor.defined()) return;
  const std::uint64_t offset =
      blob.AddPayload(tensor.RawData(), tensor.RawData(), tensor.SizeBytes());
  writer.U64(offset);
  writer.U64(tensor.SizeBytes());
  writer.I64s(tensor.shape().dims());
  writer.U8(static_cast<std::uint8_t>(tensor.dtype()));
  WriteQuant(writer, tensor.quant());
}

/// The zero-copy read: validate the (offset, bytes) range against the BLOB
/// section and the recorded shape, then hand out a read-only view into the
/// mapping. No payload byte is parsed or copied; a stray write faults.
NDArray ReadTensor(MetaReader& reader, const LoadContext& ctx) {
  if (!reader.Bool()) return NDArray();
  const std::uint64_t offset = reader.U64();
  const std::uint64_t bytes = reader.U64();
  const std::vector<std::int64_t> dims = reader.I64s();
  const DType dtype = ReadDType(reader);
  const QuantParams quant = ReadQuant(reader);

  if (offset % kPayloadAlign != 0 || offset > ctx.blob.bytes ||
      bytes > ctx.blob.bytes - offset) {
    TNP_THROW(kParseError) << "artifact: tensor payload range [" << offset << ", +"
                           << bytes << ") escapes the BLOB section ("
                           << ctx.blob.bytes << " bytes)";
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(CheckedElements(dims)) * DTypeBytes(dtype);
  if (bytes != expected) {
    TNP_THROW(kParseError) << "artifact: tensor payload holds " << bytes
                           << " bytes but its shape needs " << expected;
  }
  NDArray view = NDArray::ViewOver(
      const_cast<unsigned char*>(ctx.blob.data) + offset,
      static_cast<std::size_t>(bytes), Shape(dims), dtype, ctx.mapping);
  if (quant.valid) view.set_quant(quant);
  return view;
}

// ------------------------------------------------------------ packed panels

void WritePackedMatrix(MetaWriter& writer, ArtifactWriter& blob,
                       const kernels::PackedMatrix& matrix) {
  writer.U8(static_cast<std::uint8_t>(matrix.side));
  writer.U8(static_cast<std::uint8_t>(matrix.dtype));
  writer.I64(matrix.rows);
  writer.I64(matrix.cols);
  writer.I64(matrix.groups);
  writer.I64(matrix.panel);
  writer.I64(matrix.group_stride);
  writer.I64(matrix.config.mr);
  writer.I64(matrix.config.nr);
  writer.I64(matrix.config.kc);
  writer.I64(matrix.config.nc);
  writer.I64(matrix.config.unroll);
  WriteTensor(writer, blob, matrix.data);
  WriteTensor(writer, blob, matrix.sums);
}

kernels::PackedMatrixPtr ReadPackedMatrix(MetaReader& reader, const LoadContext& ctx) {
  auto matrix = std::make_shared<kernels::PackedMatrix>();
  matrix->side = static_cast<kernels::PackedMatrix::Side>(
      CheckedTag(reader, 1, "packed matrix side"));
  matrix->dtype = ReadDType(reader);
  matrix->rows = reader.I64();
  matrix->cols = reader.I64();
  matrix->groups = reader.I64();
  matrix->panel = reader.I64();
  matrix->group_stride = reader.I64();
  matrix->config.mr = static_cast<int>(reader.I64());
  matrix->config.nr = static_cast<int>(reader.I64());
  matrix->config.kc = static_cast<int>(reader.I64());
  matrix->config.nc = static_cast<int>(reader.I64());
  matrix->config.unroll = static_cast<int>(reader.I64());
  matrix->data = ReadTensor(reader, ctx);
  matrix->sums = ReadTensor(reader, ctx);
  // The micro-kernels will walk these panels without repacking — the
  // descriptor must match the packers' layout exactly.
  kernels::ValidatePackedLayout(*matrix);
  return matrix;
}

/// The unique packed panels of a module serialize once into an indexed
/// table; per-instruction / per-op references are table indices (-1 = none).
/// Runtime pack-cache keys embed data pointers and are not serializable, so
/// the loaded cache is re-keyed by table index.
struct PackedTable {
  std::vector<kernels::PackedMatrixPtr> entries;
  std::unordered_map<const kernels::PackedMatrix*, int> index;

  int IndexOf(const kernels::PackedMatrixPtr& matrix) {
    if (matrix == nullptr) return -1;
    const auto it = index.find(matrix.get());
    if (it != index.end()) return it->second;
    const int id = static_cast<int>(entries.size());
    entries.push_back(matrix);
    index.emplace(matrix.get(), id);
    return id;
  }
};

void WritePackedTable(MetaWriter& writer, ArtifactWriter& blob, const PackedTable& table) {
  writer.U32(static_cast<std::uint32_t>(table.entries.size()));
  for (const auto& entry : table.entries) WritePackedMatrix(writer, blob, *entry);
}

std::vector<kernels::PackedMatrixPtr> ReadPackedTable(MetaReader& reader,
                                                      const LoadContext& ctx,
                                                      kernels::PackedWeightsCache& cache) {
  const std::uint32_t count = reader.Count();
  std::vector<kernels::PackedMatrixPtr> table;
  table.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    kernels::PackedMatrixPtr matrix = ReadPackedMatrix(reader, ctx);
    table.push_back(
        cache.GetOrPack("artifact/" + std::to_string(i), [&] { return matrix; }));
  }
  return table;
}

int ReadPackedIndex(MetaReader& reader, const std::vector<kernels::PackedMatrixPtr>& table,
                    const char* what) {
  const std::int32_t index = reader.I32();
  if (index < -1 || index >= static_cast<std::int32_t>(table.size())) {
    TNP_THROW(kParseError) << "artifact: " << what << " packed-weights index " << index
                           << " escapes the panel table (" << table.size()
                           << " entries)";
  }
  return index;
}

// ----------------------------------------------------------------- testbed

/// Testbeds are referenced by name, not serialized: the artifact must bind
/// to this binary's calibrated cost tables, not a snapshot of them.
std::string TestbedName(const sim::Testbed* testbed) {
  if (testbed == &sim::Testbed::Dimensity800()) return "dimensity800";
  TNP_THROW(kInvalidArgument)
      << "artifact: only the built-in Dimensity 800 testbed is serializable "
         "(custom testbeds cannot be rebound by name on load)";
}

const sim::Testbed* TestbedByName(const std::string& name) {
  if (name == "dimensity800") return &sim::Testbed::Dimensity800();
  TNP_THROW(kParseError) << "artifact: unknown testbed '" << name << "'";
}

// ----------------------------------------------------------- neuron package

void WriteNeuronOpAttrs(MetaWriter& writer, const neuron::NeuronOpAttrs& attrs) {
  writer.I64s(attrs.strides);
  writer.I64s(attrs.padding);
  writer.I64s(attrs.dilation);
  writer.I64(attrs.groups);
  writer.I64s(attrs.pool_size);
  writer.Bool(attrs.count_include_pad);
  writer.I32(attrs.axis);
  writer.F32(attrs.alpha);
  writer.F32(attrs.clip_min);
  writer.F32(attrs.clip_max);
  writer.F32(attrs.epsilon);
  writer.I64s(attrs.newshape);
  writer.I64s(attrs.pad_before);
  writer.I64s(attrs.pad_after);
  writer.F64(attrs.pad_value);
}

neuron::NeuronOpAttrs ReadNeuronOpAttrs(MetaReader& reader) {
  neuron::NeuronOpAttrs attrs;
  attrs.strides = reader.I64s();
  attrs.padding = reader.I64s();
  attrs.dilation = reader.I64s();
  attrs.groups = reader.I64();
  attrs.pool_size = reader.I64s();
  attrs.count_include_pad = reader.Bool();
  attrs.axis = reader.I32();
  attrs.alpha = reader.F32();
  attrs.clip_min = reader.F32();
  attrs.clip_max = reader.F32();
  attrs.epsilon = reader.F32();
  attrs.newshape = reader.I64s();
  attrs.pad_before = reader.I64s();
  attrs.pad_after = reader.I64s();
  attrs.pad_value = reader.F64();
  return attrs;
}

void WritePackageMeta(MetaWriter& writer, ArtifactWriter& blob,
                      const neuron::NeuronPackage& package) {
  writer.Str(package.name);

  // CompilerOptions.
  writer.Bool(package.options.target.use_cpu);
  writer.Bool(package.options.target.use_apu);
  writer.Str(TestbedName(package.options.testbed));
  writer.U8(static_cast<std::uint8_t>(package.options.policy));
  writer.Bool(package.options.prepack_weights);
  writer.Str(package.tuning_fingerprint);

  // NeuronModel: flat operand table + operation list (NNAPI style).
  const auto& model = package.model;
  writer.U32(static_cast<std::uint32_t>(model.operands().size()));
  for (const auto& operand : model.operands()) {
    writer.Str(operand.name);
    writer.I64s(operand.shape.dims());
    writer.U8(static_cast<std::uint8_t>(operand.dtype));
    WriteQuant(writer, operand.quant);
    writer.U8(static_cast<std::uint8_t>(operand.kind));
    WriteTensor(writer, blob, operand.data);
  }
  writer.U32(static_cast<std::uint32_t>(model.operations().size()));
  for (const auto& operation : model.operations()) {
    writer.U8(static_cast<std::uint8_t>(operation.type));
    WriteNeuronOpAttrs(writer, operation.attrs);
    writer.I32s(operation.inputs);
    writer.I32s(operation.outputs);
  }
  writer.I32s(model.model_inputs());
  writer.I32s(model.model_outputs());

  // ExecutionPlan (device placement is part of the compiled artifact — the
  // planner does not rerun on load).
  writer.U32(static_cast<std::uint32_t>(package.plan.placement.size()));
  for (const sim::DeviceKind device : package.plan.placement) {
    writer.U8(static_cast<std::uint8_t>(device));
  }
  writer.F64(package.plan.estimated_us);

  // NeuronMemoryPlan.
  writer.U32(static_cast<std::uint32_t>(package.memory.operands.size()));
  for (const auto& storage : package.memory.operands) {
    writer.U8(static_cast<std::uint8_t>(storage.kind));
    writer.I64(storage.offset);
    writer.I64(storage.bytes);
  }
  writer.I64(package.memory.arena_bytes);
  writer.I64(package.memory.planned_bytes);

  // Pre-packed weight panels + the per-operation references into them.
  PackedTable table;
  std::vector<int> op_packed;
  op_packed.reserve(package.op_packed_weights.size());
  for (const auto& matrix : package.op_packed_weights) {
    op_packed.push_back(table.IndexOf(matrix));
  }
  WritePackedTable(writer, blob, table);
  writer.I32s(op_packed);
}

std::shared_ptr<neuron::NeuronPackage> ReadPackageMeta(MetaReader& reader,
                                                       const LoadContext& ctx) {
  auto package = std::make_shared<neuron::NeuronPackage>();
  package->name = reader.Str();

  package->options.target.use_cpu = reader.Bool();
  package->options.target.use_apu = reader.Bool();
  package->options.testbed = TestbedByName(reader.Str());
  package->options.policy = static_cast<neuron::PlannerPolicy>(
      CheckedTag(reader, static_cast<std::uint8_t>(neuron::PlannerPolicy::kDynamic),
                 "planner policy"));
  package->options.prepack_weights = reader.Bool();
  package->tuning_fingerprint = reader.Str();

  const std::uint32_t operand_count = reader.Count();
  for (std::uint32_t i = 0; i < operand_count; ++i) {
    neuron::Operand operand;
    operand.name = reader.Str();
    operand.shape = Shape(reader.I64s());
    operand.dtype = ReadDType(reader);
    operand.quant = ReadQuant(reader);
    operand.kind = static_cast<neuron::OperandKind>(
        CheckedTag(reader, static_cast<std::uint8_t>(neuron::OperandKind::kTemporary),
                   "operand kind"));
    operand.data = ReadTensor(reader, ctx);
    if (operand.kind == neuron::OperandKind::kConstant && !operand.data.defined()) {
      TNP_THROW(kParseError) << "artifact: constant operand '" << operand.name
                             << "' has no payload";
    }
    package->model.AddOperand(std::move(operand));
  }
  const auto check_ids = [&](const std::vector<int>& ids, const char* what) {
    for (const int id : ids) {
      if (id < 0 || id >= static_cast<int>(operand_count)) {
        TNP_THROW(kParseError) << "artifact: " << what << " operand id " << id
                               << " escapes the operand table (" << operand_count
                               << ")";
      }
    }
  };
  const std::uint32_t op_count = reader.Count();
  for (std::uint32_t i = 0; i < op_count; ++i) {
    neuron::Operation operation;
    operation.type = static_cast<neuron::NeuronOpType>(CheckedTag(
        reader, static_cast<std::uint8_t>(neuron::NeuronOpType::kRequantize),
        "neuron op type"));
    operation.attrs = ReadNeuronOpAttrs(reader);
    operation.inputs = reader.I32s();
    operation.outputs = reader.I32s();
    check_ids(operation.inputs, "operation input");
    check_ids(operation.outputs, "operation output");
    package->model.AddOperation(std::move(operation));
  }
  std::vector<int> model_inputs = reader.I32s();
  std::vector<int> model_outputs = reader.I32s();
  check_ids(model_inputs, "model input");
  check_ids(model_outputs, "model output");
  package->model.SetModelInputs(std::move(model_inputs));
  package->model.SetModelOutputs(std::move(model_outputs));
  // Structural validation (topological order, single producers) on top of
  // the range checks above — a corrupt graph fails here, not at execution.
  package->model.Validate();

  const std::uint32_t placement_count = reader.Count();
  if (placement_count != op_count) {
    TNP_THROW(kParseError) << "artifact: placement covers " << placement_count
                           << " operations, model has " << op_count;
  }
  package->plan.placement.reserve(placement_count);
  for (std::uint32_t i = 0; i < placement_count; ++i) {
    package->plan.placement.push_back(static_cast<sim::DeviceKind>(CheckedTag(
        reader, static_cast<std::uint8_t>(sim::DeviceKind::kNeuronApu), "device")));
  }
  package->plan.estimated_us = reader.F64();

  const std::uint32_t storage_count = reader.Count();
  if (storage_count != operand_count) {
    TNP_THROW(kParseError) << "artifact: memory plan covers " << storage_count
                           << " operands, model has " << operand_count;
  }
  package->memory.operands.reserve(storage_count);
  for (std::uint32_t i = 0; i < storage_count; ++i) {
    neuron::OperandStorage storage;
    storage.kind = static_cast<neuron::OperandStorage::Kind>(CheckedTag(
        reader, static_cast<std::uint8_t>(neuron::OperandStorage::Kind::kArena),
        "operand storage kind"));
    storage.offset = reader.I64();
    storage.bytes = reader.I64();
    package->memory.operands.push_back(storage);
  }
  package->memory.arena_bytes = reader.I64();
  package->memory.planned_bytes = reader.I64();
  for (const auto& storage : package->memory.operands) {
    if (storage.kind == neuron::OperandStorage::Kind::kArena &&
        (storage.offset < 0 || storage.bytes < 0 ||
         storage.offset > package->memory.arena_bytes - storage.bytes)) {
      TNP_THROW(kParseError) << "artifact: operand arena range [" << storage.offset
                             << ", +" << storage.bytes << ") escapes the arena ("
                             << package->memory.arena_bytes << " bytes)";
    }
  }

  const std::vector<kernels::PackedMatrixPtr> table =
      ReadPackedTable(reader, ctx, package->packed_weights);
  const std::vector<int> op_packed = reader.I32s();
  if (op_packed.size() != op_count) {
    TNP_THROW(kParseError) << "artifact: packed-weights list covers " << op_packed.size()
                           << " operations, model has " << op_count;
  }
  package->op_packed_weights.reserve(op_packed.size());
  for (std::size_t i = 0; i < op_packed.size(); ++i) {
    const int index = op_packed[i];
    if (index < -1 || index >= static_cast<int>(table.size())) {
      TNP_THROW(kParseError) << "artifact: operation " << i << " packed-weights index "
                             << index << " escapes the panel table (" << table.size()
                             << " entries)";
    }
    package->op_packed_weights.push_back(index < 0 ? nullptr : table[index]);
  }
  neuron::BindOperations(*package);
  return package;
}

// ---------------------------------------------------------- relay metadata

void WriteType(MetaWriter& writer, const relay::Type& type) {
  writer.U8(static_cast<std::uint8_t>(type.kind()));
  switch (type.kind()) {
    case relay::Type::Kind::kUnknown:
      break;
    case relay::Type::Kind::kTensor:
      writer.I64s(type.AsTensor().shape.dims());
      writer.U8(static_cast<std::uint8_t>(type.AsTensor().dtype));
      break;
    case relay::Type::Kind::kTuple: {
      writer.U32(static_cast<std::uint32_t>(type.AsTuple().size()));
      for (const auto& field : type.AsTuple()) WriteType(writer, field);
      break;
    }
  }
}

relay::Type ReadType(MetaReader& reader, int depth = 0) {
  if (depth > 32) {
    TNP_THROW(kParseError) << "artifact: type nesting deeper than 32";
  }
  const auto kind = static_cast<relay::Type::Kind>(
      CheckedTag(reader, static_cast<std::uint8_t>(relay::Type::Kind::kTuple), "type kind"));
  switch (kind) {
    case relay::Type::Kind::kUnknown:
      return relay::Type();
    case relay::Type::Kind::kTensor: {
      const std::vector<std::int64_t> dims = reader.I64s();
      CheckedElements(dims);
      const DType dtype = ReadDType(reader);
      return relay::Type::Tensor(Shape(dims), dtype);
    }
    case relay::Type::Kind::kTuple: {
      const std::uint32_t count = reader.Count();
      std::vector<relay::Type> fields;
      fields.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        fields.push_back(ReadType(reader, depth + 1));
      }
      return relay::Type::Tuple(std::move(fields));
    }
  }
  TNP_THROW(kParseError) << "artifact: unreachable type kind";
}

void WriteAttrs(MetaWriter& writer, const relay::Attrs& attrs) {
  writer.U32(static_cast<std::uint32_t>(attrs.values().size()));
  for (const auto& [key, value] : attrs.values()) {  // std::map: deterministic
    writer.Str(key);
    writer.U8(static_cast<std::uint8_t>(value.index()));
    if (const auto* i = std::get_if<std::int64_t>(&value)) {
      writer.I64(*i);
    } else if (const auto* d = std::get_if<double>(&value)) {
      writer.F64(*d);
    } else if (const auto* s = std::get_if<std::string>(&value)) {
      writer.Str(*s);
    } else if (const auto* is = std::get_if<std::vector<std::int64_t>>(&value)) {
      writer.I64s(*is);
    } else {
      writer.F64s(std::get<std::vector<double>>(value));
    }
  }
}

relay::Attrs ReadAttrs(MetaReader& reader) {
  relay::Attrs attrs;
  const std::uint32_t count = reader.Count();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = reader.Str();
    switch (CheckedTag(reader, 4, "attribute kind")) {
      case 0: attrs.SetInt(key, reader.I64()); break;
      case 1: attrs.SetDouble(key, reader.F64()); break;
      case 2: attrs.SetString(key, reader.Str()); break;
      case 3: attrs.SetInts(key, reader.I64s()); break;
      case 4: attrs.SetDoubles(key, reader.F64s()); break;
    }
  }
  return attrs;
}

void WriteOpDesc(MetaWriter& writer, const sim::OpDesc& desc) {
  writer.U8(static_cast<std::uint8_t>(desc.category));
  writer.Str(desc.name);
  writer.I64(desc.macs);
  writer.I64(desc.input_bytes);
  writer.I64(desc.output_bytes);
  writer.I64(desc.weight_bytes);
  writer.Bool(desc.int8);
  writer.I32(desc.fused_ops);
}

sim::OpDesc ReadOpDesc(MetaReader& reader) {
  sim::OpDesc desc;
  desc.category = static_cast<sim::OpCategory>(CheckedTag(
      reader, static_cast<std::uint8_t>(sim::OpCategory::kQuantize), "op category"));
  desc.name = reader.Str();
  desc.macs = reader.I64();
  desc.input_bytes = reader.I64();
  desc.output_bytes = reader.I64();
  desc.weight_bytes = reader.I64();
  desc.int8 = reader.Bool();
  desc.fused_ops = reader.I32();
  return desc;
}

void RecordLoad(std::chrono::steady_clock::time_point start) {
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  support::metrics::Registry::Global().GetHistogram("artifact/load_us").Record(us);
}

}  // namespace

// ------------------------------------------------------------ entry points

std::uint64_t SaveNeuronPackage(const neuron::NeuronPackage& package,
                                const std::string& path) {
  ArtifactWriter blob(ArtifactKind::kNeuronPackage);
  MetaWriter writer;
  WritePackageMeta(writer, blob, package);
  return blob.Commit(writer.buffer(), path);
}

neuron::NeuronPackagePtr MapNeuronPackage(const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  const ArtifactFile file = ArtifactFile::Open(path, ArtifactKind::kNeuronPackage);
  const LoadContext ctx{file.blob(), file.mapping()};
  MetaReader reader(file.meta().data, static_cast<std::size_t>(file.meta().bytes));
  std::shared_ptr<neuron::NeuronPackage> package = ReadPackageMeta(reader, ctx);
  if (!reader.AtEnd()) {
    TNP_THROW(kParseError) << "artifact " << path << ": " << reader.remaining()
                           << " trailing META bytes";
  }
  RecordLoad(start);
  return package;
}

std::uint64_t SaveCompiledModule(const relay::CompiledModule& compiled,
                                 const std::string& path) {
  ArtifactWriter blob(ArtifactKind::kCompiledModule);
  MetaWriter writer;

  // BuildOptions.
  writer.Bool(compiled.options.enable_fusion);
  writer.Bool(compiled.options.prepack_weights);
  writer.Bool(compiled.options.fold_batch_norm);
  writer.U8(static_cast<std::uint8_t>(compiled.options.host_device));
  writer.Str(TestbedName(compiled.options.testbed));
  writer.U32(static_cast<std::uint32_t>(compiled.options.external_config.size()));
  for (const auto& [key, value] : compiled.options.external_config) {
    writer.Str(key);
    writer.Str(value);
  }
  writer.Str(compiled.tuning_fingerprint);

  // Externals: every BYOC subgraph must expose its NeuronPackage — that is
  // the only external this stack produces, and the only one reconstructable
  // from bytes.
  writer.U32(static_cast<std::uint32_t>(compiled.externals.size()));
  for (const auto& external : compiled.externals) {
    const auto* nir = dynamic_cast<const core::NirExternalModule*>(external.get());
    if (nir == nullptr) {
      TNP_THROW(kInvalidArgument)
          << "artifact: external module '" << external->name()
          << "' is not a NirExternalModule and cannot be serialized";
    }
    writer.Str(nir->name());
    WritePackageMeta(writer, blob, nir->package());
  }

  // Program shape before instructions, so the loader validates slots inline.
  writer.I32(compiled.num_slots);
  {
    std::vector<std::pair<std::string, int>> inputs(compiled.input_slots.begin(),
                                                    compiled.input_slots.end());
    std::sort(inputs.begin(), inputs.end());  // deterministic bytes
    writer.U32(static_cast<std::uint32_t>(inputs.size()));
    for (const auto& [name, slot] : inputs) {
      writer.Str(name);
      writer.I32(slot);
    }
  }
  writer.I32(compiled.output_slot);
  writer.I32(compiled.num_outputs);

  // Packed panel table shared by the instruction stream.
  PackedTable table;
  std::vector<int> packed_index;
  packed_index.reserve(compiled.instructions.size());
  for (const auto& inst : compiled.instructions) {
    packed_index.push_back(table.IndexOf(inst.packed_weights));
  }
  WritePackedTable(writer, blob, table);

  // Instruction stream with snapshotted attrs/types/cost descriptors.
  writer.U32(static_cast<std::uint32_t>(compiled.instructions.size()));
  for (std::size_t i = 0; i < compiled.instructions.size(); ++i) {
    const relay::Instruction& inst = compiled.instructions[i];
    writer.U8(static_cast<std::uint8_t>(inst.kind));
    writer.I32(inst.output_slot);
    writer.I32s(inst.input_slots);
    writer.Str(inst.op_name);
    WriteAttrs(writer, inst.attrs);
    WriteType(writer, inst.out_type);
    writer.I32(inst.fusion_group);
    writer.Bool(inst.charge);
    writer.I32(inst.external_index);
    writer.I32(inst.tuple_index);
    WriteTensor(writer, blob, inst.constant);
    writer.I32(packed_index[i]);
    WriteOpDesc(writer, inst.desc);
  }

  // MemoryPlan.
  writer.U32(static_cast<std::uint32_t>(compiled.memory_plan.slots.size()));
  for (const auto& slot : compiled.memory_plan.slots) {
    writer.U8(static_cast<std::uint8_t>(slot.kind));
    writer.I64(slot.offset);
    writer.I64(slot.bytes);
    writer.I32(slot.alias_of);
    writer.I64s(slot.type.shape.dims());
    writer.U8(static_cast<std::uint8_t>(slot.type.dtype));
    writer.I32(slot.first_def);
    writer.I32(slot.last_use);
  }
  writer.I64(compiled.memory_plan.arena_bytes);
  writer.I64(compiled.memory_plan.planned_bytes);
  writer.I32(compiled.memory_plan.num_arena_slots);
  writer.I32(compiled.memory_plan.num_alias_slots);

  return blob.Commit(writer.buffer(), path);
}

relay::CompiledModulePtr MapCompiledModule(const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  const ArtifactFile file = ArtifactFile::Open(path, ArtifactKind::kCompiledModule);
  const LoadContext ctx{file.blob(), file.mapping()};
  MetaReader reader(file.meta().data, static_cast<std::size_t>(file.meta().bytes));
  auto module = std::make_shared<relay::CompiledModule>();

  module->options.enable_fusion = reader.Bool();
  module->options.prepack_weights = reader.Bool();
  module->options.fold_batch_norm = reader.Bool();
  module->options.host_device = static_cast<sim::DeviceKind>(CheckedTag(
      reader, static_cast<std::uint8_t>(sim::DeviceKind::kNeuronApu), "host device"));
  module->options.testbed = TestbedByName(reader.Str());
  const std::uint32_t config_count = reader.Count();
  for (std::uint32_t i = 0; i < config_count; ++i) {
    std::string key = reader.Str();
    module->options.external_config[std::move(key)] = reader.Str();
  }
  module->tuning_fingerprint = reader.Str();

  const std::uint32_t external_count = reader.Count();
  module->externals.reserve(external_count);
  for (std::uint32_t i = 0; i < external_count; ++i) {
    std::string name = reader.Str();
    std::shared_ptr<neuron::NeuronPackage> package = ReadPackageMeta(reader, ctx);
    module->externals.push_back(
        std::make_shared<core::NirExternalModule>(std::move(name), std::move(package)));
  }

  module->num_slots = reader.I32();
  if (module->num_slots < 0 || module->num_slots > (1 << 28)) {
    TNP_THROW(kParseError) << "artifact: implausible slot count " << module->num_slots;
  }
  const auto check_slot = [&](int slot, const char* what) {
    if (slot < 0 || slot >= module->num_slots) {
      TNP_THROW(kParseError) << "artifact: " << what << " slot " << slot
                             << " escapes the program (" << module->num_slots
                             << " slots)";
    }
  };
  const std::uint32_t input_count = reader.Count();
  for (std::uint32_t i = 0; i < input_count; ++i) {
    std::string name = reader.Str();
    const std::int32_t slot = reader.I32();
    check_slot(slot, "graph input");
    module->input_slots.emplace(std::move(name), slot);
  }
  module->output_slot = reader.I32();
  check_slot(module->output_slot, "program output");
  module->num_outputs = reader.I32();
  if (module->num_outputs < 1) {
    TNP_THROW(kParseError) << "artifact: invalid output count " << module->num_outputs;
  }

  const std::vector<kernels::PackedMatrixPtr> table =
      ReadPackedTable(reader, ctx, module->packed_weights);

  const std::uint32_t inst_count = reader.Count();
  module->instructions.reserve(inst_count);
  for (std::uint32_t i = 0; i < inst_count; ++i) {
    relay::Instruction inst;
    inst.kind = static_cast<relay::Instruction::Kind>(CheckedTag(
        reader, static_cast<std::uint8_t>(relay::Instruction::Kind::kTupleGetItem),
        "instruction kind"));
    inst.output_slot = reader.I32();
    check_slot(inst.output_slot, "instruction output");
    inst.input_slots = reader.I32s();
    for (const int slot : inst.input_slots) check_slot(slot, "instruction input");
    inst.op_name = reader.Str();
    inst.attrs = ReadAttrs(reader);
    inst.out_type = ReadType(reader);
    inst.fusion_group = reader.I32();
    inst.charge = reader.Bool();
    inst.external_index = reader.I32();
    if (inst.kind == relay::Instruction::Kind::kCallExternal &&
        (inst.external_index < 0 ||
         inst.external_index >= static_cast<int>(module->externals.size()))) {
      TNP_THROW(kParseError) << "artifact: external index " << inst.external_index
                             << " escapes the external table ("
                             << module->externals.size() << " modules)";
    }
    inst.tuple_index = reader.I32();
    inst.constant = ReadTensor(reader, ctx);
    if (inst.kind == relay::Instruction::Kind::kConstant && !inst.constant.defined()) {
      TNP_THROW(kParseError) << "artifact: constant instruction " << i
                             << " has no payload";
    }
    const int packed = ReadPackedIndex(reader, table, "instruction");
    if (packed >= 0) inst.packed_weights = table[packed];
    inst.desc = ReadOpDesc(reader);
    module->instructions.push_back(std::move(inst));
  }

  const std::uint32_t slot_count = reader.Count();
  if (slot_count != 0 && slot_count != static_cast<std::uint32_t>(module->num_slots)) {
    TNP_THROW(kParseError) << "artifact: memory plan covers " << slot_count
                           << " slots, program has " << module->num_slots;
  }
  module->memory_plan.slots.reserve(slot_count);
  for (std::uint32_t i = 0; i < slot_count; ++i) {
    relay::SlotPlan slot;
    slot.kind = static_cast<relay::SlotPlan::Kind>(CheckedTag(
        reader, static_cast<std::uint8_t>(relay::SlotPlan::Kind::kAlias), "slot kind"));
    slot.offset = reader.I64();
    slot.bytes = reader.I64();
    slot.alias_of = reader.I32();
    if (slot.alias_of < -1 || slot.alias_of >= module->num_slots) {
      TNP_THROW(kParseError) << "artifact: slot " << i << " aliases slot "
                             << slot.alias_of << " outside the program";
    }
    const std::vector<std::int64_t> dims = reader.I64s();
    CheckedElements(dims);
    slot.type.shape = Shape(dims);
    slot.type.dtype = ReadDType(reader);
    slot.first_def = reader.I32();
    slot.last_use = reader.I32();
    module->memory_plan.slots.push_back(std::move(slot));
  }
  module->memory_plan.arena_bytes = reader.I64();
  module->memory_plan.planned_bytes = reader.I64();
  module->memory_plan.num_arena_slots = reader.I32();
  module->memory_plan.num_alias_slots = reader.I32();
  if (module->memory_plan.arena_bytes < 0) {
    TNP_THROW(kParseError) << "artifact: negative arena size";
  }
  for (std::size_t i = 0; i < module->memory_plan.slots.size(); ++i) {
    const relay::SlotPlan& slot = module->memory_plan.slots[i];
    if (slot.kind == relay::SlotPlan::Kind::kArena &&
        (slot.offset < 0 || slot.bytes < 0 ||
         slot.offset > module->memory_plan.arena_bytes - slot.bytes)) {
      TNP_THROW(kParseError) << "artifact: slot " << i << " arena range ["
                             << slot.offset << ", +" << slot.bytes
                             << ") escapes the arena ("
                             << module->memory_plan.arena_bytes << " bytes)";
    }
  }

  if (!reader.AtEnd()) {
    TNP_THROW(kParseError) << "artifact " << path << ": " << reader.remaining()
                           << " trailing META bytes";
  }
  relay::BindInstructions(*module);
  RecordLoad(start);
  return module;
}

}  // namespace artifact
}  // namespace tnp
