// K-mer index over the reference genome: the fast seeding path of the
// pipeline. A sorted (kmer, position) table — compact and cache-friendly
// compared to a node-per-kmer hash map — plus a bucket table over the top
// bucket_bits(k, keys) bits of each key, so a lookup is one bucket read and
// a lower_bound inside one bucket of ~16-32 keys (a few cache lines), not a
// ~25-step binary search over the whole key array.
//
// The build is a two-pass counting sort over the key's top bits: a
// histogram pass, then a scatter of (key, position) pairs into one buffer
// and a small sort inside each bucket. The histogram, rewritten from pair
// counts into key counts, is the bucket table.
//
// The four flat arrays (keys_/offsets_/entries_/buckets_) are exposed as
// spans and can be adopted from external read-only memory: a SharedIndex
// mmap-loads the serialized arrays and constructs a view-backed KmerIndex
// over them with zero copy (see seedext/shared_index.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "seq/alphabet.hpp"
#include "util/check.hpp"

namespace saloba::seedext {

class KmerIndex {
 public:
  /// Supported k range: 2 bits per base must fit a 64-bit key with room for
  /// the rolling shift, and kMaxK keeps every key's high bits zero so
  /// serialized keys are canonical (one masked packing path, no k == 32
  /// special case anywhere).
  static constexpr int kMinK = 4;
  static constexpr int kMaxK = 31;
  /// Positions and offsets are 32-bit; references beyond this are rejected
  /// at build time (and recorded as u64 in the on-disk header so the loader
  /// re-validates the limit).
  static constexpr std::size_t kMaxReferenceBases = 0xFFFFFFFFull;
  /// Target bucket occupancy: bucket_bits picks 16-32 keys per bucket.
  static constexpr std::size_t kKeysPerBucket = 16;

  /// Bits of the key that select its bucket: the largest b <= 2k with
  /// keys >> b >= kKeysPerBucket (0 for fewer than 2 * kKeysPerBucket keys).
  /// A pure function of k and the distinct-key count, so the writer and the
  /// loader of an index file agree on the table's size without storing it.
  static int bucket_bits(int k, std::size_t keys);

  /// k in [kMinK, kMaxK]; k-mers containing N are not indexed.
  KmerIndex(std::span<const seq::BaseCode> text, int k);

  /// Adopts already-built flat arrays (the mmap zero-copy load path): the
  /// spans must stay valid and immutable for the index's lifetime, and must
  /// hold exactly what the building constructor would have produced —
  /// sorted distinct keys, offsets of size keys.size() + 1 delimiting each
  /// key's ascending position run in entries, and buckets of size
  /// 2^bucket_bits(k, keys.size()) + 1 where buckets[j] is the first key
  /// whose top bits are >= j (first 0, non-decreasing, last keys.size()).
  KmerIndex(int k, std::span<const std::uint64_t> keys,
            std::span<const std::uint32_t> offsets,
            std::span<const std::uint32_t> entries,
            std::span<const std::uint32_t> buckets);

  int k() const { return k_; }
  std::size_t distinct_kmers() const;
  std::size_t indexed_positions() const { return entries_.size(); }

  /// Positions where the k-mer starting at `kmer[0..k)` occurs.
  /// Returns an empty span for k-mers containing N.
  std::span<const std::uint32_t> lookup(std::span<const seq::BaseCode> kmer) const;

  /// Lookup by an already-packed canonical key (pack_kmer's form) — lets the
  /// seeding loop roll its keys and the sharded index probe every shard with
  /// one key.
  std::span<const std::uint32_t> lookup_packed(std::uint64_t key) const {
    const std::size_t idx = find_key(key);
    return idx == kAbsent ? std::span<const std::uint32_t>{} : run_of(idx);
  }

  /// lookup_packed over many keys at once: runs[i] is keys[i]'s position
  /// run (runs.size() == keys.size()); a key above kmer_mask(k) — a caller's
  /// "no k-mer here" marker — gets an empty run. The memory reads of all
  /// keys overlap: every bucket slot is prefetched, then every bucket's key
  /// lines, then every found key's offsets, then every run, each stage
  /// before the first read of the next.
  void lookup_batch(std::span<const std::uint64_t> keys,
                    std::span<std::span<const std::uint32_t>> runs) const;

  /// 2-bit packs a k-mer; nullopt if it contains N. Keys are masked to the
  /// low 2k bits — the same canonical form the rolling build produces.
  static std::optional<std::uint64_t> pack_kmer(std::span<const seq::BaseCode> kmer, int k);

  /// Low-2k-bit mask every key is reduced to, for k in [kMinK, kMaxK].
  static constexpr std::uint64_t kmer_mask(int k) {
    static_assert(2 * kMaxK < 64, "rolling k-mer keys must fit 64 bits unshifted");
    return (1ULL << (2 * k)) - 1;
  }

  /// The flat arrays, for serialization (seedext::SharedIndex).
  std::span<const std::uint64_t> keys() const { return keys_; }
  std::span<const std::uint32_t> offsets() const { return offsets_; }
  std::span<const std::uint32_t> entries() const { return entries_; }
  std::span<const std::uint32_t> buckets() const { return buckets_; }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Index of `key` in keys_ (kAbsent if missing): one bucket-table read,
  /// then a lower_bound inside that bucket.
  std::size_t find_key(std::uint64_t key) const {
    SALOBA_DCHECK(key <= kmer_mask(k_));
    const std::size_t bucket = static_cast<std::size_t>(key >> bucket_shift_);
    const auto first = keys_.begin() + buckets_[bucket];
    const auto last = keys_.begin() + buckets_[bucket + 1];
    const auto it = std::lower_bound(first, last, key);
    return it != last && *it == key ? static_cast<std::size_t>(it - keys_.begin()) : kAbsent;
  }
  std::span<const std::uint32_t> run_of(std::size_t idx) const {
    return entries_.subspan(offsets_[idx], offsets_[idx + 1] - offsets_[idx]);
  }

  int k_;
  int bucket_shift_ = 0;  ///< 2k - bucket_bits: key >> shift is its bucket
  // Owned storage when built from text; empty when adopting external memory.
  std::vector<std::uint64_t> keys_store_;
  std::vector<std::uint32_t> offsets_store_;
  std::vector<std::uint32_t> entries_store_;
  std::vector<std::uint32_t> buckets_store_;
  // Parallel arrays sorted by key: keys_ holds each distinct k-mer once,
  // offsets_[i]..offsets_[i+1] indexes entries_ (positions, ascending), and
  // buckets_[j]..buckets_[j+1] is the key range of bucket j.
  std::span<const std::uint64_t> keys_;
  std::span<const std::uint32_t> offsets_;
  std::span<const std::uint32_t> entries_;
  std::span<const std::uint32_t> buckets_;
};

}  // namespace saloba::seedext
