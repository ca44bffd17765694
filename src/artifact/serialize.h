// Versioned serialization + mmap'd zero-copy loading of compiled modules.
//
// This is the paper's deployment story (§4.5, `lib.export_library` on the
// host, load-and-run on the device): what ships is the compiled artifact,
// never source-level Relay, so a restart pays no type inference, codegen or
// weight re-packing. The functions here serialize the *compiled* artifact —
// the linearized instruction stream with snapshotted op attrs, the static
// MemoryPlan, the Execution Planner's placement, and the pre-packed GEMM
// weight panels — so loading is a page-in:
//
//   * zero parsing of tensor payloads — constants and packed panels are
//     located by (offset, bytes) in the BLOB section, never decoded;
//   * zero weight repacking — panels were packed at compile time and are
//     mapped back in panel form (TotalWeightPacks() does not move);
//   * zero payload copies — every constant/panel NDArray is a read-only
//     view into the mapping (NDArray::ViewOver pinning the MappedFile).
//
// MapCompiledModule / MapNeuronPackage are the "MapArtifact" loaders: the
// returned module is immediately executable (GraphExecutor /
// NeuronExecutionSession): the loaders bind every instruction / operation
// to its kernel call, and a loaded module produces byte-identical outputs
// to a fresh compile and to the interpreter oracle — enforced by
// tests/test_artifact.cc.
//
// All load failures are typed tnp::Error (kParseError for malformed bytes,
// kRuntimeError for I/O): fail closed, never crash, never silently fall
// back to stale bytes.
#pragma once

#include <string>

#include "neuron/compiler.h"
#include "relay/build.h"

namespace tnp {
namespace artifact {

/// Serialize a compiled NeuronPackage (NP-only flows) and atomically
/// publish it to `path`. Returns the file size in bytes.
std::uint64_t SaveNeuronPackage(const neuron::NeuronPackage& package,
                                const std::string& path);

/// Serialize a CompiledModule — including every external NeuronPackage (the
/// BYOC subgraphs must be NirExternalModules; anything else is a typed
/// kInvalidArgument). Returns the file size in bytes.
std::uint64_t SaveCompiledModule(const relay::CompiledModule& compiled,
                                 const std::string& path);

/// mmap-backed loaders ("MapArtifact"): validate the file (header, version,
/// endianness, section checksums), decode META, and reconstruct an
/// executable module whose tensor payloads are read-only views into the
/// mapping. Records the "artifact/load_us" histogram.
relay::CompiledModulePtr MapCompiledModule(const std::string& path);
neuron::NeuronPackagePtr MapNeuronPackage(const std::string& path);

}  // namespace artifact
}  // namespace tnp
