// Relay module fingerprint: a 64-bit content hash of every global function —
// expression structure (with structural sharing), operator and function
// attributes, variable type annotations, and constant tensors (raw bytes +
// quantization metadata). CompileFlow keys the artifact cache with it
// (core/flows.cc), so any change to a model's weights or structure lands in
// a different store entry, while two imports of the same model share one.
//
// The walk feeds structure (node tags, edges, attributes, shapes) one word
// at a time into a streaming hash, and each constant's payload as its size
// plus its support::Hash64 — one pass over the weights at memory speed,
// with nothing buffered. Two modules that differ get the same fingerprint
// with probability about 2^-64. The result depends only on module content,
// never on node addresses, so it is stable across processes of the same
// build.
#pragma once

#include <cstdint>

#include "relay/module.h"

namespace tnp {
namespace relay {

std::uint64_t ModuleFingerprint(const Module& module);

}  // namespace relay
}  // namespace tnp
