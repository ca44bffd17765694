// On-disk layout of a compiled-artifact file (".tnpa").
//
// The file serializes a *compiled* module — not IR. Loading is a page-in,
// not a rebuild: structural metadata (instruction stream, memory plans,
// packed-panel descriptors) lives in one compact META section that is
// decoded eagerly, while every tensor payload (constants, pre-packed weight
// panels, zero-point sum vectors) lives in a BLOB section whose bytes are
// *never parsed, never copied and never repacked* — the loader hands out
// read-only NDArray views straight into the mapping.
//
//   ┌────────────────────────────┐ offset 0
//   │ FileHeader (64 bytes)      │ magic, endianness stamp, format version,
//   │                            │ artifact kind, section count, file size
//   ├────────────────────────────┤ offset 64
//   │ SectionEntry[section_count]│ 32 bytes each: id, offset, bytes, XXH64
//   ├────────────────────────────┤ 64-byte aligned
//   │ META section               │ bounds-checked binary metadata
//   ├────────────────────────────┤ 64-byte aligned
//   │ BLOB section               │ tensor payloads, each 64-byte aligned
//   └────────────────────────────┘
//
// Versioning/compat policy: `kFormatVersion` is bumped on ANY change to the
// META encoding or section layout. There is no cross-version migration —
// readers reject other versions with a typed error (kParseError) and the
// content-addressed store keys include the version, so a new binary simply
// misses the old cache entries and rebuilds into fresh files. Endianness is
// stamped explicitly; artifacts do not travel between byte orders.
//
// Every read failure is a typed tnp::Error (fail closed): truncation, bad
// magic, version or endianness mismatch, out-of-range sections, checksum
// mismatch, and any META overrun. A reader never crashes on hostile bytes
// and never silently falls back to stale payloads.
#pragma once

#include <cstdint>
#include <string>

namespace tnp {
namespace artifact {

/// File magic: the bytes 'T','N','P','A' at offset 0.
inline constexpr std::uint32_t kMagic = 0x41504E54u;  // "TNPA" little-endian

/// Byte-order stamp. A reader on the opposite endianness sees 0x04030201.
inline constexpr std::uint32_t kEndianStamp = 0x01020304u;

/// Bumped on every breaking change to the META encoding or section layout.
/// v2: packed-matrix descriptors carry their GEMM config (mr/nr/kc/nc/unroll)
/// and module/package metadata records the build-time tuning fingerprint.
/// v3: section checksums are XXH64 (support::Hash64), not FNV-1a.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Payload sections start on this alignment, as does every tensor payload
/// inside the BLOB section — mmap bases are page-aligned, so file-offset
/// alignment carries over to memory alignment (NDArray's contract).
inline constexpr std::uint64_t kPayloadAlign = 64;

/// What the artifact contains (header field; also part of the store key).
enum class ArtifactKind : std::uint32_t {
  kCompiledModule = 1,  ///< relay::CompiledModule (+ its external NeuronPackages)
  kNeuronPackage = 2,   ///< standalone neuron::NeuronPackage (NP-only flows)
};

enum class SectionId : std::uint32_t {
  kMeta = 1,  ///< structural metadata (decoded eagerly, bounds-checked)
  kBlob = 2,  ///< tensor payloads (mapped, never parsed or copied)
};

#pragma pack(push, 1)
struct FileHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t endian = kEndianStamp;
  std::uint32_t version = kFormatVersion;
  std::uint32_t kind = 0;
  std::uint32_t section_count = 0;
  std::uint32_t reserved0 = 0;
  std::uint64_t file_bytes = 0;
  std::uint8_t pad[32] = {};
};
static_assert(sizeof(FileHeader) == 64, "header is one cache line");

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;    ///< absolute file offset (kPayloadAlign-ed)
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;  ///< XXH64 (support::Hash64, seed 0) of the section bytes
};
static_assert(sizeof(SectionEntry) == 32, "section table entries are fixed-size");
#pragma pack(pop)

/// Lower-case 16-hex-digit rendering (store file names).
std::string HashHex(std::uint64_t hash);

inline std::uint64_t AlignUp(std::uint64_t value, std::uint64_t align) {
  return (value + align - 1) / align * align;
}

}  // namespace artifact
}  // namespace tnp
