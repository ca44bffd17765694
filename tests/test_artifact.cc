// The artifact store (DESIGN.md §5h): bitwise round trips across flows,
// zero-repack / zero-copy loading, hostile-input fail-closed behavior, and
// concurrent load-or-build convergence.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "artifact/file.h"
#include "artifact/format.h"
#include "artifact/serialize.h"
#include "artifact/store.h"
#include "core/flows.h"
#include "kernels/pack.h"
#include "oracle.h"
#include "relay/build.h"
#include "relay/pass.h"
#include "support/error.h"
#include "support/metrics.h"
#include "zoo/zoo.h"

namespace tnp {
namespace artifact {
namespace {

namespace fs = std::filesystem;

/// Per-test scratch directory under the ctest working directory, removed on
/// scope exit (artifact files in it stay alive while mapped — unlink is safe
/// against live mmaps on POSIX).
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag)
      : path("artifact_test_" + tag + "_" + std::to_string(::getpid())) {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

relay::Module SmallZoo(const std::string& name) {
  zoo::ZooOptions options;
  options.image_size = 32;
  options.width = 0.25;
  options.depth = 0.3;
  return zoo::Build(name, options);
}

NDArray SmallInput(std::uint64_t seed) {
  return NDArray::RandomNormal(Shape({1, 3, 32, 32}), seed, 0.5f);
}

/// Zoo frontends disagree on the graph input's name; bind whichever exists
/// and report which one did.
std::string SetAnyInput(core::InferenceSession& session, const NDArray& input) {
  for (const char* name : {"input", "x", "t0", "data"}) {
    try {
      session.SetInput(name, input);
      return name;
    } catch (const Error&) {
    }
  }
  ADD_FAILURE() << "no known input name accepted";
  return "";
}

std::vector<NDArray> RunOnce(core::InferenceSession& session, const NDArray& input) {
  SetAnyInput(session, input);
  session.Run();
  std::vector<NDArray> outputs;
  for (int i = 0; i < session.NumOutputs(); ++i) outputs.push_back(session.GetOutput(i));
  return outputs;
}

core::FlowCompileSettings WithStore(const std::string& dir) {
  core::FlowCompileSettings settings;
  settings.artifact_cache = std::make_shared<ArtifactStore>(dir);
  return settings;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename Fn>
void ExpectError(ErrorKind kind, Fn&& fn, const std::string& message = "") {
  try {
    fn();
    ADD_FAILURE() << "expected " << ErrorKindName(kind) << ", nothing thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << "expected \"" << message << "\" in: " << e.what();
  }
}

/// The error ArtifactFile::Open raises when `section` fails its checksum.
std::string ChecksumMismatch(SectionId section) {
  return "section " + std::to_string(static_cast<std::uint32_t>(section)) +
         " checksum mismatch";
}

SectionEntry ReadSection(const std::string& file, SectionId id) {
  for (std::uint32_t i = 0; i < 2; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, file.data() + sizeof(FileHeader) + i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.id == static_cast<std::uint32_t>(id)) return entry;
  }
  ADD_FAILURE() << "section " << static_cast<std::uint32_t>(id) << " not in the table";
  return {};
}

std::int64_t CounterValue(const char* name) {
  const auto* counter = support::metrics::Registry::Global().FindCounter(name);
  return counter != nullptr ? counter->value() : 0;
}

/// A compiled TVM-only module for the direct Save/Map tests.
relay::CompiledModulePtr CompiledMobilenet() {
  const relay::Module typed = relay::InferType().Run(SmallZoo("mobilenet_v1"));
  return relay::Build(typed);
}

// ---------------------------------------------------------------------------
// Round trips: loaded artifacts are bitwise-identical to fresh compiles.
// ---------------------------------------------------------------------------

TEST(Artifact, StoreRoundTripBitwiseAcrossModelsAndFlows) {
  TempDir dir("roundtrip");
  const NDArray input = SmallInput(11);
  for (const char* name : {"mobilenet_v1", "mobilenet_v1_quant", "deepixbis"}) {
    const relay::Module module = SmallZoo(name);
    for (const core::FlowKind flow : core::kAllFlows) {
      std::string error;
      const auto fresh = core::TryCompileFlow(module, flow, &error);
      if (fresh == nullptr) continue;  // flow legitimately unsupported for the model

      const core::FlowCompileSettings cached = WithStore(dir.path);
      const auto built = core::CompileFlow(module, flow, cached);   // miss: build + publish
      const auto loaded = core::CompileFlow(module, flow, cached);  // hit: mmap from disk

      const auto want = RunOnce(*fresh, input);
      const auto via_store = RunOnce(*built, input);
      const auto mapped = RunOnce(*loaded, input);
      ASSERT_EQ(want.size(), mapped.size()) << name << " " << core::FlowName(flow);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(NDArray::BitEqual(want[i], via_store[i]))
            << name << " " << core::FlowName(flow) << " output " << i;
        EXPECT_TRUE(NDArray::BitEqual(want[i], mapped[i]))
            << name << " " << core::FlowName(flow) << " output " << i;
      }
      EXPECT_EQ(loaded->NumPartitions(), fresh->NumPartitions());
      EXPECT_EQ(loaded->NumExternalOps(), fresh->NumExternalOps());
      EXPECT_EQ(loaded->UsedResources(), fresh->UsedResources());
    }
  }
}

TEST(Artifact, StoreCountsHitsAndMisses) {
  TempDir dir("counters");
  const relay::Module module = SmallZoo("mobilenet_v1");
  const core::FlowCompileSettings cached = WithStore(dir.path);

  const std::int64_t hits0 = CounterValue("artifact/cache_hits");
  const std::int64_t misses0 = CounterValue("artifact/cache_misses");
  core::CompileFlow(module, core::FlowKind::kTvmOnly, cached);
  EXPECT_EQ(CounterValue("artifact/cache_misses"), misses0 + 1);
  EXPECT_EQ(CounterValue("artifact/cache_hits"), hits0);
  core::CompileFlow(module, core::FlowKind::kTvmOnly, cached);
  EXPECT_EQ(CounterValue("artifact/cache_misses"), misses0 + 1);
  EXPECT_EQ(CounterValue("artifact/cache_hits"), hits0 + 1);
  EXPECT_GT(CounterValue("artifact/save_bytes"), 0);

  // A different flow is a different key: no false hit.
  core::CompileFlow(module, core::FlowKind::kByocCpuApu, cached);
  EXPECT_EQ(CounterValue("artifact/cache_misses"), misses0 + 2);
}

TEST(Artifact, SaveIsDeterministic) {
  TempDir dir("determinism");
  fs::create_directory(dir.path);
  const auto compiled = CompiledMobilenet();
  const std::string p1 = dir.path + "/a.tnpa";
  const std::string p2 = dir.path + "/b.tnpa";
  EXPECT_EQ(SaveCompiledModule(*compiled, p1), SaveCompiledModule(*compiled, p2));
  EXPECT_EQ(ReadAll(p1), ReadAll(p2));
}

// ---------------------------------------------------------------------------
// Zero-copy guarantees: no repacks, no tensor allocations, views only.
// ---------------------------------------------------------------------------

TEST(Artifact, MapDoesNotRepackOrAllocateTensorPayloads) {
  TempDir dir("zerocopy");
  fs::create_directory(dir.path);
  const std::string path = dir.path + "/m.tnpa";
  SaveCompiledModule(*CompiledMobilenet(), path);

  const std::int64_t packs_before = kernels::TotalWeightPacks();
  const std::int64_t allocs_before = NDArray::TotalAllocations();
  const relay::CompiledModulePtr loaded = MapCompiledModule(path);
  EXPECT_EQ(kernels::TotalWeightPacks(), packs_before) << "load must not repack weights";
  EXPECT_EQ(NDArray::TotalAllocations(), allocs_before)
      << "tensor payloads must be views into the mapping, not heap copies";

  int constants = 0, packed = 0;
  for (const auto& inst : loaded->instructions) {
    if (inst.kind == relay::Instruction::Kind::kConstant) {
      ++constants;
      EXPECT_TRUE(inst.constant.IsView());
    }
    if (inst.packed_weights != nullptr) {
      ++packed;
      EXPECT_TRUE(inst.packed_weights->data.IsView());
      if (inst.packed_weights->sums.defined()) {
        EXPECT_TRUE(inst.packed_weights->sums.IsView());
      }
    }
  }
  EXPECT_GT(constants, 0);
  EXPECT_GT(packed, 0) << "prepacked panels must survive the round trip";
  EXPECT_GT(MappedFile::TotalMappedBytes(), 0);
}

TEST(Artifact, SteadyStateZeroAllocationsAfterLoad) {
  TempDir dir("steady");
  const relay::Module module = SmallZoo("mobilenet_v1");
  const core::FlowCompileSettings cached = WithStore(dir.path);
  core::CompileFlow(module, core::FlowKind::kTvmOnly, cached);  // populate
  const auto loaded = core::CompileFlow(module, core::FlowKind::kTvmOnly, cached);

  const NDArray input = SmallInput(3);
  const std::string in_name = SetAnyInput(*loaded, input);
  loaded->Run();  // warm-up: arena views and external sessions exist now
  (void)loaded->GetOutput(0);

  const std::int64_t packs = kernels::TotalWeightPacks();
  const std::int64_t allocs = NDArray::TotalAllocations();
  for (int i = 0; i < 3; ++i) {
    loaded->SetInput(in_name, input);
    loaded->Run();
    (void)loaded->GetOutput(0);
  }
  EXPECT_EQ(kernels::TotalWeightPacks(), packs) << "steady-state repack after load";
  EXPECT_EQ(NDArray::TotalAllocations(), allocs) << "steady-state tensor allocation";
}

TEST(Artifact, LoadedExecutionMatchesOracle) {
  TempDir dir("planned");
  fs::create_directory(dir.path);
  const std::string path = dir.path + "/m.tnpa";
  const relay::Module module = relay::InferType().Run(SmallZoo("mobilenet_v1"));
  SaveCompiledModule(*relay::Build(module), path);
  const relay::CompiledModulePtr loaded = MapCompiledModule(path);

  relay::GraphExecutor executor(loaded);
  const NDArray input = SmallInput(5);
  for (const auto& [name, slot] : loaded->input_slots) {
    (void)slot;
    executor.SetInput(name, input);
  }
  executor.Run();
  const std::vector<NDArray> expected = OracleOutputs(module, input);
  ASSERT_EQ(executor.NumOutputs(), static_cast<int>(expected.size()));
  for (int i = 0; i < executor.NumOutputs(); ++i) {
    EXPECT_TRUE(NDArray::BitEqual(executor.GetOutput(i), expected[static_cast<std::size_t>(i)]))
        << i;
  }
}

// ---------------------------------------------------------------------------
// Hostile inputs: every malformed byte fails closed with a typed error.
// ---------------------------------------------------------------------------

class ArtifactHostile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("hostile");
    fs::create_directory(dir_->path);
    path_ = dir_->path + "/m.tnpa";
    SaveCompiledModule(*CompiledMobilenet(), path_);
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), sizeof(FileHeader) + 2 * sizeof(SectionEntry));
  }

  /// Write `mutated` next to the original and expect a typed load failure
  /// whose message contains `message`.
  void ExpectRejected(const std::string& mutated, ErrorKind kind = ErrorKind::kParseError,
                      const std::string& message = "") {
    const std::string path = dir_->path + "/mutated.tnpa";
    WriteAll(path, mutated);
    ExpectError(kind, [&] { MapCompiledModule(path); }, message);
  }

  /// Flip one byte at `file_offset` and expect `section`'s checksum to fail.
  void ExpectFlipRejected(std::uint64_t file_offset, SectionId section) {
    SCOPED_TRACE("flipped file byte " + std::to_string(file_offset));
    ASSERT_LT(file_offset, bytes_.size());
    std::string mutated = bytes_;
    mutated[file_offset] ^= 0x01;
    ExpectRejected(mutated, ErrorKind::kParseError, ChecksumMismatch(section));
  }

  std::unique_ptr<TempDir> dir_;
  std::string path_;
  std::string bytes_;
};

TEST_F(ArtifactHostile, TruncatedFile) {
  ExpectRejected(bytes_.substr(0, bytes_.size() / 2));
  ExpectRejected(bytes_.substr(0, sizeof(FileHeader) - 1));  // below even the header
  ExpectRejected(bytes_.substr(0, bytes_.size() - 1));       // off by one
}

TEST_F(ArtifactHostile, FlippedPayloadByte) {
  std::string mutated = bytes_;
  mutated[mutated.size() - 1] ^= 0x01;  // last BLOB byte -> checksum mismatch
  ExpectRejected(mutated);
  mutated = bytes_;
  mutated[mutated.size() / 2] ^= 0x80;  // mid-file
  ExpectRejected(mutated);
}

TEST_F(ArtifactHostile, EveryChecksumRegionFailsClosed) {
  // One flip in each code path of the section hash: the first byte of each
  // section, a byte inside a 32-byte stripe, and a byte of the final tail
  // after the last whole 8-byte word (or the last word, if there is no tail).
  const SectionEntry meta = ReadSection(bytes_, SectionId::kMeta);
  const SectionEntry blob = ReadSection(bytes_, SectionId::kBlob);
  ASSERT_GT(blob.bytes, 96u);
  ExpectFlipRejected(meta.offset, SectionId::kMeta);
  ExpectFlipRejected(blob.offset, SectionId::kBlob);
  ExpectFlipRejected(blob.offset + 32 + 13, SectionId::kBlob);
  ExpectFlipRejected(blob.offset + blob.bytes - 1, SectionId::kBlob);
  ExpectFlipRejected(meta.offset + meta.bytes - 1, SectionId::kMeta);
}

TEST_F(ArtifactHostile, EveryFlippedByteOfSmallSectionsFailsClosed) {
  // Sizes that reach every branch of the hash: META (45 B) is one stripe,
  // one word, one 4-byte word and one tail byte; BLOB (79 B) is two stripes,
  // a word, a 4-byte word and three tail bytes.
  const std::string path = dir_->path + "/small.tnpa";
  std::string meta(45, '\0');
  std::string payload(79, '\0');
  for (std::size_t i = 0; i < meta.size(); ++i) meta[i] = static_cast<char>(i * 7 + 1);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<char>(i * 13 + 5);
  ArtifactWriter writer(ArtifactKind::kCompiledModule);
  writer.AddPayload(nullptr, payload.data(), payload.size());
  writer.Commit(meta, path);
  const std::string bytes = ReadAll(path);
  EXPECT_NO_THROW(ArtifactFile::Open(path, ArtifactKind::kCompiledModule));

  const std::string mutated_path = dir_->path + "/mutated.tnpa";
  for (const SectionId id : {SectionId::kMeta, SectionId::kBlob}) {
    const SectionEntry section = ReadSection(bytes, id);
    ASSERT_EQ(section.bytes, id == SectionId::kMeta ? meta.size() : payload.size());
    for (std::uint64_t i = 0; i < section.bytes; ++i) {
      SCOPED_TRACE("section " + std::to_string(section.id) + " byte " + std::to_string(i));
      std::string mutated = bytes;
      mutated[section.offset + i] ^= 0x10;
      WriteAll(mutated_path, mutated);
      ExpectError(ErrorKind::kParseError,
                  [&] { ArtifactFile::Open(mutated_path, ArtifactKind::kCompiledModule); },
                  ChecksumMismatch(id));
    }
  }
}

TEST_F(ArtifactHostile, WrongFormatVersion) {
  std::string mutated = bytes_;
  mutated[offsetof(FileHeader, version)] += 1;
  ExpectRejected(mutated, ErrorKind::kParseError, "format version");
  // A file written by the previous (FNV-1a checksum) format is rejected by
  // its version before any checksum is computed.
  mutated = bytes_;
  const std::uint32_t v2 = 2;
  std::memcpy(&mutated[offsetof(FileHeader, version)], &v2, sizeof(v2));
  ExpectRejected(mutated, ErrorKind::kParseError, "format version 2");
}

TEST_F(ArtifactHostile, WrongEndiannessStamp) {
  std::string mutated = bytes_;
  // A big-endian writer would emit the stamp bytes in the opposite order.
  const std::size_t at = offsetof(FileHeader, endian);
  std::swap(mutated[at], mutated[at + 3]);
  std::swap(mutated[at + 1], mutated[at + 2]);
  ExpectRejected(mutated);
}

TEST_F(ArtifactHostile, BadMagic) {
  std::string mutated = bytes_;
  mutated[0] ^= 0xFF;
  ExpectRejected(mutated);
}

TEST_F(ArtifactHostile, SectionOffsetOutOfRange) {
  std::string mutated = bytes_;
  const std::size_t offset_field = sizeof(FileHeader) + offsetof(SectionEntry, offset);
  for (int i = 0; i < 8; ++i) mutated[offset_field + i] = static_cast<char>(0xFF);
  ExpectRejected(mutated);
}

TEST_F(ArtifactHostile, WrongArtifactKind) {
  // A valid CompiledModule artifact offered as a NeuronPackage must be
  // rejected at the header, not misparsed.
  ExpectError(ErrorKind::kParseError, [&] { MapNeuronPackage(path_); });
}

TEST_F(ArtifactHostile, MissingFileIsIoError) {
  ExpectError(ErrorKind::kRuntimeError,
              [&] { MapCompiledModule(dir_->path + "/absent.tnpa"); });
}

TEST(Artifact, StoreMissesCleanlyButFailsClosedOnCorruption) {
  TempDir dir("failclosed");
  ArtifactStore store(dir.path);
  EXPECT_EQ(store.TryLoadModule("no-such-key"), nullptr);  // clean miss

  const auto compiled = CompiledMobilenet();
  store.SaveModule("k", *compiled);
  store.SaveModule("k", *compiled);  // idempotent republish of identical content
  EXPECT_NE(store.TryLoadModule("k"), nullptr);

  std::string damaged = ReadAll(store.PathFor("k", ArtifactKind::kCompiledModule));
  damaged[damaged.size() - 1] ^= 0x01;
  WriteAll(store.PathFor("k", ArtifactKind::kCompiledModule), damaged);
  // Present-but-corrupt is NOT a miss: no nullptr, no silent recompile.
  ExpectError(ErrorKind::kParseError, [&] { store.TryLoadModule("k"); });
}

// ---------------------------------------------------------------------------
// Concurrency: load-or-build racers converge on one valid entry.
// ---------------------------------------------------------------------------

TEST(Artifact, ConcurrentLoadOrBuildConverges) {
  TempDir dir("race");
  const relay::Module module = SmallZoo("mobilenet_v1");
  const NDArray input = SmallInput(17);

  const auto reference =
      RunOnce(*core::CompileFlow(module, core::FlowKind::kByocCpuApu), input);

  constexpr int kThreads = 8;
  std::vector<std::vector<NDArray>> outputs(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        const core::FlowCompileSettings settings = WithStore(dir.path);
        const auto session = core::CompileFlow(module, core::FlowKind::kByocCpuApu, settings);
        outputs[t] = RunOnce(*session, input);
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "racer " << t;
    ASSERT_EQ(outputs[t].size(), reference.size()) << "racer " << t;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(NDArray::BitEqual(outputs[t][i], reference[i]))
          << "racer " << t << " output " << i;
    }
  }

  // Exactly one entry survives and later compiles hit it.
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(e.path().extension(), ".tnpa") << e.path();
    ++entries;
  }
  EXPECT_EQ(entries, 1);
  const std::int64_t hits = CounterValue("artifact/cache_hits");
  core::CompileFlow(module, core::FlowKind::kByocCpuApu, WithStore(dir.path));
  EXPECT_EQ(CounterValue("artifact/cache_hits"), hits + 1);
}

// Stress reproducer for racing compiles of one shared, already-typed module
// (serve session pools share modules the same way): every CompileFlow runs
// InferType over the same nodes, so a pass that writes a node another thread
// reads corrupts the heap or yields garbage shapes within a few rounds.
TEST(Artifact, ConcurrentCompilesOfOneSharedModule) {
  const relay::Module module = SmallZoo("mobilenet_v1");
  const NDArray input = SmallInput(19);
  const auto reference =
      RunOnce(*core::CompileFlow(module, core::FlowKind::kByocCpuApu), input);

  constexpr int kRounds = 12;
  constexpr int kThreads = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<NDArray>> outputs(kThreads);
    std::vector<std::string> errors(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        try {
          outputs[t] = RunOnce(*core::CompileFlow(module, core::FlowKind::kByocCpuApu), input);
        } catch (const std::exception& e) {
          errors[t] = e.what();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(errors[t], "") << "round " << round << " racer " << t;
      ASSERT_EQ(outputs[t].size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_TRUE(NDArray::BitEqual(outputs[t][i], reference[i]))
            << "round " << round << " racer " << t << " output " << i;
      }
    }
  }
}

}  // namespace
}  // namespace artifact
}  // namespace tnp
