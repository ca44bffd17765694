#include "artifact/store.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "artifact/serialize.h"
#include "support/hash.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/timeseries.h"

namespace tnp {
namespace artifact {

namespace {

support::metrics::Counter& HitCounter() {
  static support::metrics::Counter& counter =
      support::metrics::Registry::Global().GetCounter("artifact/cache_hits");
  return counter;
}

support::metrics::Counter& MissCounter() {
  static support::metrics::Counter& counter =
      support::metrics::Registry::Global().GetCounter("artifact/cache_misses");
  return counter;
}

void EnsureDirectory(const std::string& path) {
  std::string prefix;
  prefix.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      prefix.push_back(path[i]);
      continue;
    }
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      TNP_THROW(kRuntimeError) << "cannot create artifact store directory " << prefix
                               << ": " << std::strerror(errno);
    }
    if (i < path.size()) prefix.push_back('/');
  }
}

/// The one place a miss is legitimate: the entry does not exist at all.
/// Anything else (a present file that later fails to open, map or parse)
/// propagates as a typed error from the loader.
bool EntryExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string directory) : directory_(std::move(directory)) {
  EnsureDirectory(directory_);
  // Window these in /timeseries so a cold-start (miss burst + load_us spike)
  // is visible as a rate, not just a lifetime total in /metrics.
  auto& collector = support::timeseries::Collector::Global();
  collector.TrackCounter("artifact/cache_hits");
  collector.TrackCounter("artifact/cache_misses");
  collector.TrackHistogram("artifact/load_us");
}

std::string ArtifactStore::PathFor(const std::string& key, ArtifactKind kind) const {
  // Chain version and kind into the hash seed so one caller key can never
  // alias across format revisions or artifact kinds.
  std::uint64_t hash = support::Hash64(&kFormatVersion, sizeof(kFormatVersion));
  hash = support::Hash64(&kind, sizeof(kind), hash);
  hash = support::Hash64(key.data(), key.size(), hash);
  return directory_ + "/" + HashHex(hash) + ".tnpa";
}

relay::CompiledModulePtr ArtifactStore::TryLoadModule(const std::string& key) {
  const std::string path = PathFor(key, ArtifactKind::kCompiledModule);
  if (!EntryExists(path)) {
    MissCounter().Increment();
    return nullptr;
  }
  relay::CompiledModulePtr compiled = MapCompiledModule(path);
  HitCounter().Increment();
  return compiled;
}

void ArtifactStore::SaveModule(const std::string& key,
                               const relay::CompiledModule& compiled) {
  SaveCompiledModule(compiled, PathFor(key, ArtifactKind::kCompiledModule));
}

neuron::NeuronPackagePtr ArtifactStore::TryLoadPackage(const std::string& key) {
  const std::string path = PathFor(key, ArtifactKind::kNeuronPackage);
  if (!EntryExists(path)) {
    MissCounter().Increment();
    return nullptr;
  }
  neuron::NeuronPackagePtr package = MapNeuronPackage(path);
  HitCounter().Increment();
  return package;
}

void ArtifactStore::SavePackage(const std::string& key,
                                const neuron::NeuronPackage& package) {
  SaveNeuronPackage(package, PathFor(key, ArtifactKind::kNeuronPackage));
}

}  // namespace artifact
}  // namespace tnp
