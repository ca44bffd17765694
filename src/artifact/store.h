// Content-addressed on-disk store of compiled artifacts.
//
// A store is a flat directory of ".tnpa" files named by the 64-bit XXH64
// hash of (on-disk format version | artifact kind | caller key). CompileFlow
// passes the module fingerprint (relay/fingerprint.h) + flow + settings as
// the key, so:
//
//   * any change to model weights/structure, flow, or compile options lands
//     in a different file — entries are immutable once published;
//   * a binary with a newer format version simply misses every old entry
//     and rebuilds into fresh files (no migration, no false hits);
//   * concurrent load-or-build racers converge: both compile, both publish
//     via atomic temp-file + rename, and either file is valid and
//     byte-equivalent for readers.
//
// TryLoad* returns nullptr only when the file does not exist (a clean miss,
// counted as "artifact/cache_misses"); a present-but-damaged entry throws a
// typed error instead of silently recompiling over stale bytes. Hits count
// "artifact/cache_hits" and map the artifact zero-copy (see serialize.h).
#pragma once

#include <string>

#include "artifact/format.h"
#include "core/flows.h"

namespace tnp {
namespace artifact {

class ArtifactStore final : public core::CompiledArtifactCache {
 public:
  /// Creates `directory` (and parents) when absent; throws kRuntimeError
  /// when it cannot be created.
  explicit ArtifactStore(std::string directory);

  const std::string& directory() const { return directory_; }

  /// <directory>/<16-hex XXH64 of version|kind|key, chained through seeds>.tnpa
  std::string PathFor(const std::string& key, ArtifactKind kind) const;

  relay::CompiledModulePtr TryLoadModule(const std::string& key) override;
  void SaveModule(const std::string& key, const relay::CompiledModule& compiled) override;
  neuron::NeuronPackagePtr TryLoadPackage(const std::string& key) override;
  void SavePackage(const std::string& key, const neuron::NeuronPackage& package) override;

 private:
  std::string directory_;
};

}  // namespace artifact
}  // namespace tnp
