// Content hash for bulk bytes: xxHash64 (Yann Collet's public algorithm,
// re-implemented here from its specification).
//
// Four independent accumulator lanes consume 32-byte stripes, so the
// multiply chains overlap in the pipeline and the hash runs at several
// GB/s — a checksum over a mapped artifact costs about as much as paging
// it in. Inputs need no alignment. Values are the reference XXH64 values
// (seed 0: "" → ef46db3751d8e999, "abc" → 44bc2cf5ad770999) on every host;
// words are read little-endian.
//
// This is a content/integrity hash, not a cryptographic one: two distinct
// inputs collide with probability about 2^-64, and nothing stops an
// adversary from constructing a collision.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tnp {
namespace support {

namespace hash_detail {

inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t Read64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

inline std::uint64_t Read32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

/// One lane step. A bijection of `acc` for a fixed input and of the input
/// for a fixed `acc`.
inline std::uint64_t Round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

inline std::uint64_t MergeRound(std::uint64_t acc, std::uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

/// Final mix: every input bit affects every output bit.
inline std::uint64_t Avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace hash_detail

/// XXH64 of `bytes` bytes at `data` (any alignment; null is fine when
/// `bytes` is 0). Chain hashes by passing one result as the next seed.
inline std::uint64_t Hash64(const void* data, std::size_t bytes, std::uint64_t seed = 0) {
  using namespace hash_detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + bytes;
  std::uint64_t h;
  if (bytes >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    const unsigned char* const last_stripe = end - 32;
    do {
      v1 = Round(v1, Read64(p));
      v2 = Round(v2, Read64(p + 8));
      v3 = Round(v3, Read64(p + 16));
      v4 = Round(v4, Read64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<std::uint64_t>(bytes);
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, Read64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= Read32(p) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= *p * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  return Avalanche(h);
}

}  // namespace support
}  // namespace tnp
