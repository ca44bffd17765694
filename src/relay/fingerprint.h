// Relay module fingerprint: a 64-bit content hash of every global function —
// expression structure (with structural sharing), operator and function
// attributes, variable type annotations, and constant tensors (raw bytes +
// quantization metadata). CompileFlow keys the artifact cache with it
// (core/flows.cc), so any change to a model's weights or structure lands in
// a different store entry, while two imports of the same model share one.
//
// The walk feeds a word-at-a-time streaming hash and buffers nothing: the
// cost is one pass over the weights, with no allocation proportional to
// their size. The result depends only on module content, never on node
// addresses, so it is stable across processes of the same build.
#pragma once

#include <cstdint>

#include "relay/module.h"

namespace tnp {
namespace relay {

std::uint64_t ModuleFingerprint(const Module& module);

}  // namespace relay
}  // namespace tnp
