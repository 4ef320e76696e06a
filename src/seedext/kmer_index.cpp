#include "seedext/kmer_index.hpp"

#include <algorithm>
#include <memory>

#include "util/check.hpp"

namespace saloba::seedext {

std::optional<std::uint64_t> KmerIndex::pack_kmer(std::span<const seq::BaseCode> kmer, int k) {
  SALOBA_CHECK_MSG(k >= kMinK && k <= kMaxK,
                   "k must be in [" << kMinK << ", " << kMaxK << "], got " << k);
  SALOBA_DCHECK(kmer.size() >= static_cast<std::size_t>(k));
  // Same masked rolling recurrence as the index build, so packed keys and
  // built keys are canonical (high bits zero) by the one shared path.
  const std::uint64_t mask = kmer_mask(k);
  std::uint64_t key = 0;
  for (int i = 0; i < k; ++i) {
    if (kmer[static_cast<std::size_t>(i)] >= 4) return std::nullopt;  // N
    key = ((key << 2) | kmer[static_cast<std::size_t>(i)]) & mask;
  }
  return key;
}

int KmerIndex::bucket_bits(int k, std::size_t keys) {
  int bits = 0;
  while (bits < 2 * k && (keys >> (bits + 1)) >= kKeysPerBucket) ++bits;
  return bits;
}

namespace {

/// Calls visit(key, pos) for every N-free k-mer of `text`, in position
/// order, with the masked rolling 2-bit key (pack_kmer's canonical form).
template <class Visit>
void for_each_kmer(std::span<const seq::BaseCode> text, int k, Visit&& visit) {
  const std::uint64_t mask = KmerIndex::kmer_mask(k);
  std::uint64_t key = 0;
  int valid = 0;  // consecutive non-N bases accumulated, capped at k
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] >= 4) {
      valid = 0;
      key = 0;
      continue;
    }
    key = ((key << 2) | text[i]) & mask;
    if (valid < k) ++valid;
    if (valid == k) visit(key, static_cast<std::uint32_t>(i + 1 - static_cast<std::size_t>(k)));
  }
}

}  // namespace

KmerIndex::KmerIndex(std::span<const seq::BaseCode> text, int k) : k_(k) {
  SALOBA_CHECK_MSG(k >= kMinK && k <= kMaxK,
                   "k must be in [" << kMinK << ", " << kMaxK << "], got " << k);
  SALOBA_CHECK_MSG(text.size() <= kMaxReferenceBases,
                   "reference of " << text.size() << " bases overflows the index's 32-bit "
                                   << "positions (limit " << kMaxReferenceBases
                                   << "); shard the reference instead");
  // Counting sort over the top `bits` of each key, sized for the most
  // k-mers the text can hold (the final table, sized for the distinct keys,
  // never needs more bits).
  const std::size_t most = text.size() >= static_cast<std::size_t>(k)
                               ? text.size() + 1 - static_cast<std::size_t>(k)
                               : 0;
  const int bits = bucket_bits(k, most);
  const int shift = 2 * k - bits;
  const std::size_t buckets = std::size_t{1} << bits;

  // Pass 1: histogram; prefix sums turn it into each bucket's first slot.
  std::vector<std::uint32_t>& table = buckets_store_;
  table.assign(buckets + 1, 0);
  for_each_kmer(text, k, [&](std::uint64_t key, std::uint32_t) { ++table[(key >> shift) + 1]; });
  for (std::size_t b = 0; b < buckets; ++b) table[b + 1] += table[b];
  const std::size_t total = table[buckets];

  // Pass 2: scatter into the one pair buffer. Pairs land in position order,
  // so sorting each bucket by (key, pos) keeps every position run ascending.
  struct KeyPos {
    std::uint64_t key;
    std::uint32_t pos;
    bool operator<(const KeyPos& o) const { return key != o.key ? key < o.key : pos < o.pos; }
  };
  auto pairs = std::make_unique_for_overwrite<KeyPos[]>(total);
  for_each_kmer(text, k, [&](std::uint64_t key, std::uint32_t pos) {
    pairs[table[key >> shift]++] = KeyPos{key, pos};
  });
  // Each cursor now sits on the next bucket's first slot: shift back.
  for (std::size_t b = buckets; b > 0; --b) table[b] = table[b - 1];
  table[0] = 0;

  // Sort each bucket and rewrite its table slot from the first pair to the
  // first distinct key, so the histogram becomes the bucket table.
  std::size_t distinct = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t first = table[b];
    const std::size_t last = table[b + 1];
    std::sort(pairs.get() + first, pairs.get() + last);
    table[b] = static_cast<std::uint32_t>(distinct);
    for (std::size_t i = first; i < last; ++i) {
      distinct += i == first || pairs[i].key != pairs[i - 1].key;
    }
  }
  table[buckets] = static_cast<std::uint32_t>(distinct);

  keys_store_.resize(distinct);
  offsets_store_.resize(distinct + 1);
  entries_store_.resize(total);
  std::size_t key_at = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (i == 0 || pairs[i].key != pairs[i - 1].key) {
      keys_store_[key_at] = pairs[i].key;
      offsets_store_[key_at++] = static_cast<std::uint32_t>(i);
    }
    entries_store_[i] = pairs[i].pos;
  }
  offsets_store_[distinct] = static_cast<std::uint32_t>(total);
  pairs.reset();

  // Coarsen to the distinct-key resolution: every 2^(bits - final)-th slot.
  const int final_bits = bucket_bits(k, distinct);
  const std::size_t step = std::size_t{1} << (bits - final_bits);
  for (std::size_t j = 0; j <= (buckets >> (bits - final_bits)); ++j) table[j] = table[j * step];
  table.resize((buckets >> (bits - final_bits)) + 1);
  table.shrink_to_fit();

  bucket_shift_ = 2 * k - final_bits;
  keys_ = keys_store_;
  offsets_ = offsets_store_;
  entries_ = entries_store_;
  buckets_ = buckets_store_;
}

KmerIndex::KmerIndex(int k, std::span<const std::uint64_t> keys,
                     std::span<const std::uint32_t> offsets,
                     std::span<const std::uint32_t> entries,
                     std::span<const std::uint32_t> buckets)
    : k_(k), keys_(keys), offsets_(offsets), entries_(entries), buckets_(buckets) {
  SALOBA_CHECK_MSG(k >= kMinK && k <= kMaxK,
                   "k must be in [" << kMinK << ", " << kMaxK << "], got " << k);
  SALOBA_CHECK_MSG(offsets.size() == keys.size() + 1,
                   "adopted offsets size " << offsets.size() << " != keys size "
                                           << keys.size() << " + 1");
  SALOBA_CHECK_MSG(offsets.back() == entries.size(),
                   "adopted offsets end " << offsets.back() << " != entries size "
                                          << entries.size());
  const int bits = bucket_bits(k, keys.size());
  SALOBA_CHECK_MSG(buckets.size() == (std::size_t{1} << bits) + 1,
                   "adopted bucket table size " << buckets.size() << " != 2^" << bits
                                                << " + 1");
  SALOBA_CHECK_MSG(buckets.front() == 0 && buckets.back() == keys.size(),
                   "adopted bucket table does not span the key array");
  bucket_shift_ = 2 * k - bits;
}

std::size_t KmerIndex::distinct_kmers() const { return keys_.size(); }

void KmerIndex::lookup_batch(std::span<const std::uint64_t> keys,
                             std::span<std::span<const std::uint32_t>> runs) const {
  SALOBA_CHECK(runs.size() == keys.size());
  const std::uint64_t mask = kmer_mask(k_);
  for (std::uint64_t key : keys) {
    if (key <= mask) __builtin_prefetch(buckets_.data() + (key >> bucket_shift_));
  }
  for (std::uint64_t key : keys) {
    if (key > mask) continue;
    const std::size_t bucket = static_cast<std::size_t>(key >> bucket_shift_);
    const std::uint64_t* first = keys_.data() + buckets_[bucket];
    const std::uint64_t* last = keys_.data() + buckets_[bucket + 1];
    for (const std::uint64_t* line = first; line < last; line += 8) __builtin_prefetch(line);
    if (last > first) __builtin_prefetch(last - 1);
  }
  std::vector<std::size_t> found(keys.size(), kAbsent);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] > mask) continue;
    found[i] = find_key(keys[i]);
    if (found[i] != kAbsent) __builtin_prefetch(offsets_.data() + found[i]);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    runs[i] = found[i] == kAbsent ? std::span<const std::uint32_t>{} : run_of(found[i]);
    if (!runs[i].empty()) __builtin_prefetch(runs[i].data());
  }
}

std::span<const std::uint32_t> KmerIndex::lookup(std::span<const seq::BaseCode> kmer) const {
  if (kmer.size() < static_cast<std::size_t>(k_)) return {};
  auto packed = pack_kmer(kmer, k_);
  if (!packed) return {};
  return lookup_packed(*packed);
}

}  // namespace saloba::seedext
