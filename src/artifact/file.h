// Artifact file I/O: atomic publish on write, validated mmap on read.
//
// Writing goes through a temp file in the same directory followed by an
// atomic rename(2), so a reader (or a concurrent writer racing on the same
// content-addressed name) only ever observes complete, checksummed files —
// never a torn write. Reading maps the whole file PROT_READ and validates
// header, section table and per-section XXH64 checksums before any byte is
// interpreted; tensor views handed out over the mapping are physically
// read-only (a stray write faults instead of corrupting the cache).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "artifact/format.h"

namespace tnp {
namespace artifact {

/// Read-only mapping of one artifact file. Shared-ptr held by every NDArray
/// view handed out over it, so the mapping outlives the loaded module for
/// exactly as long as any constant is reachable. Publishes the process-wide
/// "artifact/mmap_bytes" and "artifact/mmap_resident_bytes" gauges.
class MappedFile {
 public:
  /// Maps `path`; throws kRuntimeError when the file cannot be opened and
  /// kParseError when it is too small to even hold a header.
  static std::shared_ptr<const MappedFile> Open(const std::string& path);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const unsigned char* data() const { return data_; }
  std::uint64_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

  /// Bytes of this mapping currently resident in physical memory (mincore
  /// page walk). Refreshed into the resident gauge by ResidentBytes().
  std::uint64_t ResidentBytes() const;

  /// Sum of all live artifact mappings in the process.
  static std::int64_t TotalMappedBytes();

 private:
  MappedFile(std::string path, unsigned char* data, std::uint64_t bytes);

  std::string path_;
  unsigned char* data_ = nullptr;
  std::uint64_t bytes_ = 0;
};

/// One section located inside a validated mapping.
struct SectionView {
  const unsigned char* data = nullptr;
  std::uint64_t bytes = 0;
};

/// Open + validate an artifact file: magic, endianness stamp, format
/// version, artifact kind, section table bounds and every section checksum.
/// All failures are typed (kParseError); nothing is interpreted before its
/// checksum passes.
class ArtifactFile {
 public:
  static ArtifactFile Open(const std::string& path, ArtifactKind expected_kind);

  const SectionView& meta() const { return meta_; }
  const SectionView& blob() const { return blob_; }
  const std::shared_ptr<const MappedFile>& mapping() const { return mapping_; }

 private:
  std::shared_ptr<const MappedFile> mapping_;
  SectionView meta_;
  SectionView blob_;
};

/// Assembles META + BLOB and publishes the file atomically. The BLOB grows
/// through AddPayload, which 64-byte-aligns and deduplicates payloads by
/// source pointer (constants shared between instructions serialize once).
class ArtifactWriter {
 public:
  explicit ArtifactWriter(ArtifactKind kind) : kind_(kind) {}

  /// Append `bytes` at a 64-byte-aligned BLOB offset (deduplicated on
  /// `identity`, normally the source tensor's storage address). Returns the
  /// offset within the BLOB section.
  std::uint64_t AddPayload(const void* identity, const void* data, std::uint64_t bytes);

  /// Serialize with the given META bytes and atomically publish to `path`
  /// (temp file + rename). Returns the final file size in bytes; throws
  /// kRuntimeError on I/O failure. Counts "artifact/save_bytes".
  std::uint64_t Commit(const std::string& meta, const std::string& path);

 private:
  struct DedupEntry {
    const void* identity;
    std::uint64_t offset;
    std::uint64_t bytes;
  };

  ArtifactKind kind_;
  std::string blob_;
  std::vector<DedupEntry> dedup_;
};

}  // namespace artifact
}  // namespace tnp
