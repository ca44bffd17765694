#include "artifact/file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "support/hash.h"
#include "support/logging.h"
#include "support/metrics.h"

namespace tnp {
namespace artifact {

namespace {

std::atomic<std::int64_t> g_mapped_bytes{0};

support::metrics::Gauge& MappedGauge() {
  static support::metrics::Gauge& gauge =
      support::metrics::Registry::Global().GetGauge("artifact/mmap_bytes");
  return gauge;
}

support::metrics::Gauge& ResidentGauge() {
  static support::metrics::Gauge& gauge =
      support::metrics::Registry::Global().GetGauge("artifact/mmap_resident_bytes");
  return gauge;
}

}  // namespace

std::string HashHex(std::uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

// ------------------------------------------------------------- MappedFile

MappedFile::MappedFile(std::string path, unsigned char* data, std::uint64_t bytes)
    : path_(std::move(path)), data_(data), bytes_(bytes) {
  MappedGauge().Set(static_cast<double>(
      g_mapped_bytes.fetch_add(static_cast<std::int64_t>(bytes_)) +
      static_cast<std::int64_t>(bytes_)));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(data_, static_cast<std::size_t>(bytes_));
    MappedGauge().Set(static_cast<double>(
        g_mapped_bytes.fetch_sub(static_cast<std::int64_t>(bytes_)) -
        static_cast<std::int64_t>(bytes_)));
  }
}

std::shared_ptr<const MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    TNP_THROW(kRuntimeError) << "cannot open artifact " << path << ": "
                             << std::strerror(errno);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    TNP_THROW(kRuntimeError) << "cannot stat artifact " << path << ": "
                             << std::strerror(err);
  }
  const auto bytes = static_cast<std::uint64_t>(st.st_size);
  if (bytes < sizeof(FileHeader)) {
    ::close(fd);
    TNP_THROW(kParseError) << "artifact " << path << " truncated: " << bytes
                           << " bytes is smaller than the header";
  }
  void* mapping = ::mmap(nullptr, static_cast<std::size_t>(bytes), PROT_READ,
                         MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapping == MAP_FAILED) {
    TNP_THROW(kRuntimeError) << "cannot mmap artifact " << path << ": "
                             << std::strerror(errno);
  }
  auto file = std::shared_ptr<const MappedFile>(
      new MappedFile(path, static_cast<unsigned char*>(mapping), bytes));
  ResidentGauge().Set(static_cast<double>(file->ResidentBytes()));
  return file;
}

std::uint64_t MappedFile::ResidentBytes() const {
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0 || bytes_ == 0) return 0;
  const std::uint64_t pages = (bytes_ + static_cast<std::uint64_t>(page) - 1) /
                              static_cast<std::uint64_t>(page);
  std::vector<unsigned char> vec(static_cast<std::size_t>(pages));
  if (::mincore(data_, static_cast<std::size_t>(bytes_), vec.data()) != 0) return 0;
  std::uint64_t resident = 0;
  for (const unsigned char entry : vec) {
    if (entry & 1u) resident += static_cast<std::uint64_t>(page);
  }
  return std::min(resident, bytes_);
}

std::int64_t MappedFile::TotalMappedBytes() { return g_mapped_bytes.load(); }

// ----------------------------------------------------------- ArtifactFile

ArtifactFile ArtifactFile::Open(const std::string& path, ArtifactKind expected_kind) {
  ArtifactFile file;
  file.mapping_ = MappedFile::Open(path);
  const unsigned char* base = file.mapping_->data();
  const std::uint64_t total = file.mapping_->bytes();

  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (header.magic != kMagic) {
    TNP_THROW(kParseError) << "artifact " << path << ": bad magic 0x" << std::hex
                           << header.magic << " (not a .tnpa file)";
  }
  if (header.endian != kEndianStamp) {
    TNP_THROW(kParseError) << "artifact " << path
                           << ": endianness stamp mismatch (file written on a "
                              "different byte order)";
  }
  if (header.version != kFormatVersion) {
    TNP_THROW(kParseError) << "artifact " << path << ": format version "
                           << header.version << ", this build reads only "
                           << kFormatVersion << " (no cross-version migration; "
                              "rebuild into a fresh store)";
  }
  if (header.kind != static_cast<std::uint32_t>(expected_kind)) {
    TNP_THROW(kParseError) << "artifact " << path << ": kind " << header.kind
                           << " does not match the requested artifact kind "
                           << static_cast<std::uint32_t>(expected_kind);
  }
  if (header.file_bytes != total) {
    TNP_THROW(kParseError) << "artifact " << path << " truncated: header records "
                           << header.file_bytes << " bytes, file has " << total;
  }
  const std::uint64_t table_end =
      sizeof(FileHeader) +
      static_cast<std::uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (header.section_count != 2 || table_end > total) {
    TNP_THROW(kParseError) << "artifact " << path << ": malformed section table ("
                           << header.section_count << " sections)";
  }

  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, base + sizeof(FileHeader) + i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.offset % kPayloadAlign != 0 || entry.offset > total ||
        entry.bytes > total - entry.offset) {
      TNP_THROW(kParseError) << "artifact " << path << ": section " << entry.id
                             << " range [" << entry.offset << ", +" << entry.bytes
                             << ") escapes the file (" << total << " bytes)";
    }
    const std::uint64_t checksum = support::Hash64(base + entry.offset, entry.bytes);
    if (checksum != entry.checksum) {
      TNP_THROW(kParseError) << "artifact " << path << ": section " << entry.id
                             << " checksum mismatch (stored "
                             << HashHex(entry.checksum) << ", computed "
                             << HashHex(checksum) << ") — payload corrupt";
    }
    SectionView view{base + entry.offset, entry.bytes};
    if (entry.id == static_cast<std::uint32_t>(SectionId::kMeta)) {
      file.meta_ = view;
    } else if (entry.id == static_cast<std::uint32_t>(SectionId::kBlob)) {
      file.blob_ = view;
    } else {
      TNP_THROW(kParseError) << "artifact " << path << ": unknown section id "
                             << entry.id;
    }
  }
  if (file.meta_.data == nullptr) {
    TNP_THROW(kParseError) << "artifact " << path << ": missing META section";
  }
  if (file.blob_.data == nullptr) {
    TNP_THROW(kParseError) << "artifact " << path << ": missing BLOB section";
  }
  return file;
}

// ---------------------------------------------------------- ArtifactWriter

std::uint64_t ArtifactWriter::AddPayload(const void* identity, const void* data,
                                         std::uint64_t bytes) {
  if (identity != nullptr) {
    for (const auto& entry : dedup_) {
      if (entry.identity == identity && entry.bytes == bytes) return entry.offset;
    }
  }
  const std::uint64_t offset = AlignUp(blob_.size(), kPayloadAlign);
  blob_.resize(static_cast<std::size_t>(offset), '\0');
  blob_.append(static_cast<const char*>(data), static_cast<std::size_t>(bytes));
  if (identity != nullptr) dedup_.push_back({identity, offset, bytes});
  return offset;
}

std::uint64_t ArtifactWriter::Commit(const std::string& meta, const std::string& path) {
  const std::uint64_t table_end = sizeof(FileHeader) + 2 * sizeof(SectionEntry);
  const std::uint64_t meta_offset = AlignUp(table_end, kPayloadAlign);
  const std::uint64_t blob_offset = AlignUp(meta_offset + meta.size(), kPayloadAlign);
  const std::uint64_t file_bytes = blob_offset + blob_.size();

  FileHeader header;
  header.kind = static_cast<std::uint32_t>(kind_);
  header.section_count = 2;
  header.file_bytes = file_bytes;

  SectionEntry sections[2];
  sections[0].id = static_cast<std::uint32_t>(SectionId::kMeta);
  sections[0].offset = meta_offset;
  sections[0].bytes = meta.size();
  sections[0].checksum = support::Hash64(meta.data(), meta.size());
  sections[1].id = static_cast<std::uint32_t>(SectionId::kBlob);
  sections[1].offset = blob_offset;
  sections[1].bytes = blob_.size();
  sections[1].checksum = support::Hash64(blob_.data(), blob_.size());

  // Unique temp name in the same directory (same filesystem → rename(2) is
  // atomic). PID + address + a process-local counter keeps concurrent
  // writers — including racing load-or-build losers — from colliding.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));

  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    TNP_THROW(kRuntimeError) << "cannot create artifact temp file " << tmp << ": "
                             << std::strerror(errno);
  }
  bool ok = std::fwrite(&header, sizeof(header), 1, out) == 1 &&
            std::fwrite(sections, sizeof(SectionEntry), 2, out) == 2;
  const auto pad_to = [&](std::uint64_t target) {
    static const char zeros[kPayloadAlign] = {};
    const auto pos = static_cast<std::uint64_t>(std::ftell(out));
    if (pos > target) return false;
    return std::fwrite(zeros, 1, static_cast<std::size_t>(target - pos), out) ==
           static_cast<std::size_t>(target - pos);
  };
  ok = ok && pad_to(meta_offset) &&
       (meta.empty() || std::fwrite(meta.data(), meta.size(), 1, out) == 1);
  ok = ok && pad_to(blob_offset) &&
       (blob_.empty() || std::fwrite(blob_.data(), blob_.size(), 1, out) == 1);
  ok = std::fflush(out) == 0 && ok;
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    TNP_THROW(kRuntimeError) << "failed writing artifact temp file " << tmp;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    TNP_THROW(kRuntimeError) << "cannot publish artifact " << path << ": "
                             << std::strerror(err);
  }
  support::metrics::Registry::Global()
      .GetCounter("artifact/save_bytes")
      .Increment(static_cast<std::int64_t>(file_bytes));
  return file_bytes;
}

}  // namespace artifact
}  // namespace tnp
