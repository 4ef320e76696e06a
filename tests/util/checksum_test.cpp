// util::fnv1a64 (genome fingerprints, output digests) and
// util::fnv1a64_4lane (index payload checksums).
#include "util/checksum.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace saloba::util {
namespace {

std::span<const std::byte> bytes_of(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

/// Four-lane FNV-1a written out word by word: word i feeds lane i % 4.
std::uint64_t four_lane_reference(std::span<const std::byte> data) {
  std::uint64_t lane[4] = {kFnv64Offset, kFnv64Offset, kFnv64Offset, kFnv64Offset};
  const std::size_t words = data.size() / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    for (int b = 0; b < 8; ++b) {
      w |= static_cast<std::uint64_t>(data[i * 8 + static_cast<std::size_t>(b)]) << (8 * b);
    }
    lane[i % 4] = (lane[i % 4] ^ w) * kFnv64Prime;
  }
  std::uint64_t h = kFnv64Offset;
  for (std::uint64_t l : lane) h = (h ^ l) * kFnv64Prime;
  if (data.size() % 8 != 0) {
    std::uint64_t w = 0;
    for (std::size_t b = 0; b < data.size() % 8; ++b) {
      w |= static_cast<std::uint64_t>(data[words * 8 + b]) << (8 * b);
    }
    h = (h ^ w) * kFnv64Prime;
  }
  return (h ^ data.size()) * kFnv64Prime;
}

TEST(Checksum, OneLaneValuesArePinned) {
  // Output digests and genome fingerprints depend on these exact values.
  EXPECT_EQ(fnv1a64(bytes_of("")), 4953163356653287321ull);
  EXPECT_EQ(fnv1a64(bytes_of("abc")), 9304416050698064255ull);
  EXPECT_EQ(fnv1a64(bytes_of("the quick brown fox jumps over the lazy dog")),
            197863215536114310ull);
}

TEST(Checksum, FourLaneMatchesWordByWordReference) {
  std::string data;
  for (int len = 0; len <= 100; ++len) {
    EXPECT_EQ(fnv1a64_4lane(bytes_of(data)), four_lane_reference(bytes_of(data))) << len;
    data.push_back(static_cast<char>(len * 37 + 11));
  }
}

TEST(Checksum, FourLaneSeesOrderLengthAndEveryBit) {
  std::string data(64, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 7 + 1);
  const std::uint64_t base = fnv1a64_4lane(bytes_of(data));
  EXPECT_NE(base, fnv1a64(bytes_of(data)));
  // Words 0 and 4 share a lane, words 0 and 1 do not: both swaps show.
  for (std::size_t other : {8u, 32u}) {
    std::string swapped = data;
    std::swap_ranges(swapped.begin(), swapped.begin() + 8,
                     swapped.begin() + static_cast<std::ptrdiff_t>(other));
    EXPECT_NE(fnv1a64_4lane(bytes_of(swapped)), base) << other;
  }
  std::string padded = data + std::string(1, '\0');
  EXPECT_NE(fnv1a64_4lane(bytes_of(padded)), base);
  for (std::size_t bit = 0; bit < data.size() * 8; bit += 13) {
    std::string flipped = data;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_NE(fnv1a64_4lane(bytes_of(flipped)), base) << bit;
  }
}

}  // namespace
}  // namespace saloba::util
