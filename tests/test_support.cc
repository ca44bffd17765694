// Unit tests for the support layer: strings, tokenizer, RNG, thread pool,
// table printer, error machinery.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <vector>

#include "support/hash.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "support/tokenizer.h"

namespace tnp {
namespace {

using support::Split;
using support::SplitWhitespace;
using support::Tokenizer;
using support::Trim;

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitSingleField) {
  const auto parts = Split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(StringUtil, SplitWhitespaceDropsEmpty) {
  const auto parts = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, TrimBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(support::StartsWith("layer Conv2D", "layer "));
  EXPECT_FALSE(support::StartsWith("lay", "layer"));
  EXPECT_TRUE(support::EndsWith("model.cfg", ".cfg"));
  EXPECT_FALSE(support::EndsWith("cfg", "model.cfg"));
}

TEST(StringUtil, ParseIntValid) {
  EXPECT_EQ(support::ParseInt("42", "ctx"), 42);
  EXPECT_EQ(support::ParseInt(" -7 ", "ctx"), -7);
}

TEST(StringUtil, ParseIntInvalidThrows) {
  EXPECT_THROW(support::ParseInt("4x", "ctx"), Error);
  EXPECT_THROW(support::ParseInt("", "ctx"), Error);
  EXPECT_THROW(support::ParseInt("abc", "ctx"), Error);
}

TEST(StringUtil, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(support::ParseDouble("0.5", "ctx"), 0.5);
  EXPECT_DOUBLE_EQ(support::ParseDouble("1e-3", "ctx"), 1e-3);
}

TEST(StringUtil, ParseDoubleInvalidThrows) {
  EXPECT_THROW(support::ParseDouble("1.2.3", "ctx"), Error);
  EXPECT_THROW(support::ParseDouble("", "ctx"), Error);
}

TEST(StringUtil, FormatHelpers) {
  EXPECT_EQ(support::FormatIntVector({1, 2, 3}), "[1, 2, 3]");
  EXPECT_EQ(support::FormatIntVector({}), "[]");
  EXPECT_EQ(support::FormatDouble(1.23456, 2), "1.23");
}

TEST(Tokenizer, SkipsCommentsAndBlanks) {
  Tokenizer tok("# header\n\nline one\n   # comment\n  line two  \n", "t.txt");
  EXPECT_EQ(*tok.NextLine(), "line one");
  EXPECT_EQ(*tok.NextLine(), "line two");
  EXPECT_FALSE(tok.NextLine().has_value());
}

TEST(Tokenizer, TracksLineNumbers) {
  Tokenizer tok("# c\nalpha\n\nbeta\n", "t.txt");
  tok.NextLine();
  EXPECT_EQ(tok.current_line(), 2);
  tok.NextLine();
  EXPECT_EQ(tok.current_line(), 4);
  EXPECT_EQ(tok.Location(), "t.txt:4");
}

TEST(Tokenizer, PeekDoesNotConsume) {
  Tokenizer tok("one\ntwo\n", "t");
  EXPECT_EQ(*tok.PeekLine(), "one");
  EXPECT_EQ(*tok.NextLine(), "one");
  EXPECT_EQ(*tok.NextLine(), "two");
}

TEST(Tokenizer, ExpectExactMismatchThrows) {
  Tokenizer tok("HEADER v2\n", "t");
  EXPECT_THROW(tok.ExpectExact("HEADER v1"), Error);
}

TEST(Tokenizer, ExpectLineAtEofThrows) {
  Tokenizer tok("", "t");
  EXPECT_THROW(tok.ExpectLine("anything"), Error);
}

TEST(Tokenizer, ParseKeyValue) {
  const auto [k, v] = support::ParseKeyValue("filters = 32", "ctx");
  EXPECT_EQ(k, "filters");
  EXPECT_EQ(v, "32");
  EXPECT_THROW(support::ParseKeyValue("no-equals", "ctx"), Error);
}

TEST(Tokenizer, ParseDims) {
  EXPECT_EQ(support::ParseDims("1x3x224x224", "ctx"),
            (std::vector<std::int64_t>{1, 3, 224, 224}));
  EXPECT_EQ(support::ParseDims("4,5", "ctx"), (std::vector<std::int64_t>{4, 5}));
  EXPECT_THROW(support::ParseDims("", "ctx"), Error);
}

TEST(Rng, Deterministic) {
  support::SplitMix64 a(123);
  support::SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  support::SplitMix64 a(1);
  support::SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Rng, UniformInRange) {
  support::SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  support::SplitMix64 rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, NormalMoments) {
  support::SplitMix64 rng(99);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, StableHashIsStable) {
  EXPECT_EQ(support::StableHash("mobilenet"), support::StableHash(std::string("mobilenet")));
  EXPECT_NE(support::StableHash("a"), support::StableHash("b"));
}

TEST(Hash64, KnownAnswersSeedZero) {
  // Reference XXH64 values.
  const auto hash = [](const std::string& text) {
    return support::Hash64(text.data(), text.size(), 0);
  };
  EXPECT_EQ(hash(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(support::Hash64(nullptr, 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(hash("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(hash("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(hash("Nobody inspects the spammish repetition"), 0xfbcea83c8a378bf1ull);
  EXPECT_NE(support::Hash64("abc", 3, 1), hash("abc"));  // the seed matters
}

TEST(Hash64, EverySingleByteFlipChangesTheHash) {
  // Lengths 0..96 reach every branch: short inputs, 1..3 stripes, and every
  // combination of 8-byte, 4-byte and 1-byte tails.
  std::vector<unsigned char> bytes(96);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  std::set<std::uint64_t> by_length;
  for (std::size_t length = 0; length <= bytes.size(); ++length) {
    const std::uint64_t base = support::Hash64(bytes.data(), length);
    by_length.insert(base);
    for (std::size_t at = 0; at < length; ++at) {
      for (const unsigned char flip : {0x01, 0x80}) {
        bytes[at] ^= flip;
        EXPECT_NE(support::Hash64(bytes.data(), length), base)
            << "length " << length << ", byte " << at << ", flip " << int(flip);
        bytes[at] ^= flip;
      }
    }
  }
  EXPECT_EQ(by_length.size(), bytes.size() + 1);  // all 97 prefixes hash differently
}

TEST(Hash64, MisalignedInputHashesTheSame) {
  std::vector<unsigned char> storage(256 + 8);
  for (std::size_t i = 0; i < storage.size(); ++i) storage[i] = static_cast<unsigned char>(i * 5 + 3);
  const std::vector<unsigned char> aligned(storage.begin() + 1, storage.begin() + 1 + 256);
  for (const std::size_t length : {std::size_t{7}, std::size_t{31}, std::size_t{77}, std::size_t{256}}) {
    EXPECT_EQ(support::Hash64(storage.data() + 1, length), support::Hash64(aligned.data(), length))
        << "length " << length;
  }
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(256);
  support::ParallelFor(0, 256, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  int calls = 0;
  support::ParallelFor(5, 5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  EXPECT_THROW(
      support::ParallelFor(0, 100, [](std::int64_t i) {
        if (i == 37) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // Nested calls fan out on the work-stealing pool (help-first join); the
  // hard edges live in test_thread_pool.cc — here we only pin completeness.
  std::atomic<int> total{0};
  support::ParallelFor(0, 8, [&](std::int64_t) {
    support::ParallelFor(0, 8, [&](std::int64_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SubmitRuns) {
  std::atomic<bool> ran{false};
  auto future = support::ThreadPool::Global().Submit([&] { ran = true; });
  future.wait();
  EXPECT_TRUE(ran.load());
}

TEST(Table, AlignedOutput) {
  support::Table table({"model", "ms"});
  table.AddRow({"mobilenet", "1.5"});
  table.AddRow({"x", "12.25"});
  std::ostringstream os;
  table.Print(os, "Title");
  const std::string out = os.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| mobilenet |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(Table, RowArityMismatchThrows) {
  support::Table table({"a", "b"});
  EXPECT_THROW(table.AddRow({"only-one"}), InternalError);
}

TEST(Errors, KindPreserved) {
  try {
    TNP_THROW(kParseError) << "bad token";
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kParseError);
    EXPECT_NE(std::string(e.what()).find("bad token"), std::string::npos);
  }
}

TEST(Errors, CheckMacroThrowsInternal) {
  EXPECT_THROW(TNP_CHECK(false) << "invariant", InternalError);
  EXPECT_NO_THROW(TNP_CHECK(true) << "fine");
}

TEST(Errors, ComparisonMacros) {
  EXPECT_THROW(TNP_CHECK_EQ(1, 2), InternalError);
  EXPECT_THROW(TNP_CHECK_LT(2, 1), InternalError);
  EXPECT_NO_THROW(TNP_CHECK_GE(2, 2));
}

}  // namespace
}  // namespace tnp
