// Checksums: word-wise FNV-1a, the classic byte-at-a-time FNV-1a recurrence
// applied to 64-bit little-endian words (tail bytes zero-padded). fnv1a64 is
// the one-lane form (genome fingerprints, output digests); fnv1a64_4lane deals
// the words over four independent lanes so the multiply chains overlap and a
// multi-hundred MB index payload (seedext::SharedIndex) validates at memory
// speed — the whole point of the mmap load path. Not cryptographic; guards
// against truncation/bit-rot, not adversaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace saloba::util {

inline constexpr std::uint64_t kFnv64Offset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv64Prime = 1099511628211ULL;

/// Word-wise FNV-1a over `data`. Deterministic across platforms (the tail is
/// padded with zero bytes, words are read little-endian via memcpy).
inline std::uint64_t fnv1a64(std::span<const std::byte> data,
                             std::uint64_t seed = kFnv64Offset) {
  std::uint64_t h = seed;
  const std::size_t words = data.size() / 8;
  const std::byte* p = data.data();
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, p + i * 8, 8);
    h = (h ^ w) * kFnv64Prime;
  }
  const std::size_t tail = data.size() % 8;
  if (tail > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + words * 8, tail);
    h = (h ^ w) * kFnv64Prime;
  }
  // Fold the length in so "abc" and "abc\0" (same padded word) differ.
  return (h ^ static_cast<std::uint64_t>(data.size())) * kFnv64Prime;
}

/// Four-lane word-wise FNV-1a: word i feeds lane i % 4, every lane starts
/// at `seed`, and the lanes fold in order into one FNV-1a state together
/// with the tail word and the length. Deterministic across platforms like
/// fnv1a64, but a different function (its values differ from fnv1a64's).
inline std::uint64_t fnv1a64_4lane(std::span<const std::byte> data,
                                   std::uint64_t seed = kFnv64Offset) {
  std::uint64_t lane[4] = {seed, seed, seed, seed};
  const std::size_t words = data.size() / 8;
  const std::byte* p = data.data();
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    std::uint64_t w[4];
    std::memcpy(w, p + i * 8, sizeof(w));
    for (int l = 0; l < 4; ++l) lane[l] = (lane[l] ^ w[l]) * kFnv64Prime;
  }
  for (int l = 0; i < words; ++i, ++l) {
    std::uint64_t w;
    std::memcpy(&w, p + i * 8, 8);
    lane[l] = (lane[l] ^ w) * kFnv64Prime;
  }
  std::uint64_t h = seed;
  for (std::uint64_t l : lane) h = (h ^ l) * kFnv64Prime;
  const std::size_t tail = data.size() % 8;
  if (tail > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + words * 8, tail);
    h = (h ^ w) * kFnv64Prime;
  }
  return (h ^ static_cast<std::uint64_t>(data.size())) * kFnv64Prime;
}

/// fnv1a64 over any trivially copyable element span (the flat index arrays).
template <class T>
std::uint64_t fnv1a64_of(std::span<const T> data, std::uint64_t seed = kFnv64Offset) {
  return fnv1a64(std::as_bytes(data), seed);
}

}  // namespace saloba::util
