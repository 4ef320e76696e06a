#include "seedext/kmer_index.hpp"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "seq/alphabet.hpp"

namespace saloba::seedext {
namespace {

TEST(KmerIndex, FindsAllOccurrences) {
  util::Xoshiro256 rng(131);
  auto text = saloba::testing::random_seq(rng, 3000);
  KmerIndex index(text, 11);
  for (int trial = 0; trial < 30; ++trial) {
    std::size_t pos = rng.below(text.size() - 11);
    std::span<const seq::BaseCode> kmer(text.data() + pos, 11);
    auto hits = index.lookup(kmer);
    // Naive expected positions.
    std::set<std::uint32_t> expected;
    for (std::size_t i = 0; i + 11 <= text.size(); ++i) {
      if (std::equal(kmer.begin(), kmer.end(), text.begin() + static_cast<std::ptrdiff_t>(i))) {
        expected.insert(static_cast<std::uint32_t>(i));
      }
    }
    std::set<std::uint32_t> got(hits.begin(), hits.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(KmerIndex, NKmersNotIndexed) {
  auto text = seq::encode_string("ACGTNACGTACGT");
  KmerIndex index(text, 5);
  // Any window overlapping the N is absent.
  EXPECT_TRUE(index.lookup(seq::encode_string("CGTNA")).empty());
  EXPECT_FALSE(index.lookup(seq::encode_string("ACGTA")).empty());
}

TEST(KmerIndex, LookupOfAbsentKmer) {
  std::vector<seq::BaseCode> text(100, seq::kBaseA);
  KmerIndex index(text, 8);
  EXPECT_TRUE(index.lookup(seq::encode_string("CCCCCCCC")).empty());
  EXPECT_EQ(index.lookup(seq::encode_string("AAAAAAAA")).size(), 93u);
}

TEST(KmerIndex, PackKmerRejectsN) {
  auto kmer = seq::encode_string("ACGN");
  EXPECT_FALSE(KmerIndex::pack_kmer(kmer, 4).has_value());
  EXPECT_TRUE(KmerIndex::pack_kmer(seq::encode_string("ACGT"), 4).has_value());
}

TEST(KmerIndex, PackKmerIsInjectiveOnSmallK) {
  std::set<std::uint64_t> keys;
  std::vector<seq::BaseCode> kmer(4);
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b)
      for (int c = 0; c < 4; ++c)
        for (int d = 0; d < 4; ++d) {
          kmer = {static_cast<seq::BaseCode>(a), static_cast<seq::BaseCode>(b),
                  static_cast<seq::BaseCode>(c), static_cast<seq::BaseCode>(d)};
          keys.insert(*KmerIndex::pack_kmer(kmer, 4));
        }
  EXPECT_EQ(keys.size(), 256u);
}

TEST(KmerIndex, CountsAndSizes) {
  auto text = seq::encode_string("ACGTACGT");
  KmerIndex index(text, 4);
  EXPECT_EQ(index.k(), 4);
  EXPECT_EQ(index.indexed_positions(), 5u);
  EXPECT_EQ(index.distinct_kmers(), 4u);  // ACGT, CGTA, GTAC, TACG
}

TEST(KmerIndex, TextShorterThanK) {
  auto text = seq::encode_string("ACG");
  KmerIndex index(text, 8);
  EXPECT_EQ(index.indexed_positions(), 0u);
  EXPECT_TRUE(index.lookup(seq::encode_string("ACGTACGT")).empty());
}

/// The sort-based build the counting sort replaced: every (key, position)
/// pair, std::sort, then one run per distinct key.
struct SortBuild {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> entries;

  SortBuild(const std::vector<seq::BaseCode>& text, int k) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs;
    for (std::size_t i = 0; i + static_cast<std::size_t>(k) <= text.size(); ++i) {
      auto key = KmerIndex::pack_kmer(
          std::span<const seq::BaseCode>(text.data() + i, static_cast<std::size_t>(k)), k);
      if (key) pairs.emplace_back(*key, static_cast<std::uint32_t>(i));
    }
    std::sort(pairs.begin(), pairs.end());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i == 0 || pairs[i].first != pairs[i - 1].first) {
        keys.push_back(pairs[i].first);
        offsets.push_back(static_cast<std::uint32_t>(entries.size()));
      }
      entries.push_back(pairs[i].second);
    }
    offsets.push_back(static_cast<std::uint32_t>(entries.size()));
  }
};

void expect_matches_sort_build(const KmerIndex& index, const std::vector<seq::BaseCode>& text) {
  SortBuild ref(text, index.k());
  EXPECT_TRUE(std::ranges::equal(index.keys(), ref.keys));
  EXPECT_TRUE(std::ranges::equal(index.offsets(), ref.offsets));
  EXPECT_TRUE(std::ranges::equal(index.entries(), ref.entries));
}

/// What a lookup must return: a whole-array std::lower_bound over keys().
std::span<const std::uint32_t> binary_search_lookup(const KmerIndex& index, std::uint64_t key) {
  auto keys = index.keys();
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return {};
  auto i = static_cast<std::size_t>(it - keys.begin());
  return index.entries().subspan(index.offsets()[i], index.offsets()[i + 1] - index.offsets()[i]);
}

/// Checks the bucket table's shape, then every present key and the absent
/// keys at the edges of each bucket against binary_search_lookup.
void expect_bucketed_lookups_exact(const KmerIndex& index) {
  const int k = index.k();
  const int bits = KmerIndex::bucket_bits(k, index.keys().size());
  const int shift = 2 * k - bits;
  auto buckets = index.buckets();
  auto keys = index.keys();
  ASSERT_EQ(buckets.size(), (std::size_t{1} << bits) + 1);
  EXPECT_EQ(buckets.front(), 0u);
  EXPECT_EQ(buckets.back(), keys.size());
  EXPECT_TRUE(std::ranges::is_sorted(buckets));
  for (std::size_t j = 0; j + 1 < buckets.size(); ++j) {
    for (std::size_t i = buckets[j]; i < buckets[j + 1]; ++i) {
      ASSERT_EQ(keys[i] >> shift, j) << "key " << i << " outside its bucket";
    }
  }

  auto expect_same = [&](std::uint64_t key) {
    auto got = index.lookup_packed(key);
    auto want = binary_search_lookup(index, key);
    ASSERT_EQ(got.data(), want.data()) << "key " << key;
    ASSERT_EQ(got.size(), want.size()) << "key " << key;
  };
  for (std::uint64_t key : keys) expect_same(key);
  const std::uint64_t mask = KmerIndex::kmer_mask(k);
  for (std::size_t j = 0; j + 1 < buckets.size(); ++j) {
    const std::uint64_t lo = static_cast<std::uint64_t>(j) << shift;
    const std::uint64_t hi = lo | (mask >> bits);
    std::vector<std::uint64_t> edges = {lo, hi, lo + 1, hi - 1};
    if (buckets[j] < buckets[j + 1]) {
      edges.push_back(keys[buckets[j]] - 1);
      edges.push_back(keys[buckets[j]] + 1);
      edges.push_back(keys[buckets[j + 1] - 1] - 1);
      edges.push_back(keys[buckets[j + 1] - 1] + 1);
    }
    for (std::uint64_t key : edges) {
      if (key <= mask) expect_same(key);
    }
  }
}

TEST(KmerIndexBuckets, BucketBitsTargetsSixteenToThirtyTwoKeys) {
  EXPECT_EQ(KmerIndex::bucket_bits(16, 0), 0);
  EXPECT_EQ(KmerIndex::bucket_bits(16, 31), 0);
  EXPECT_EQ(KmerIndex::bucket_bits(16, 32), 1);
  EXPECT_EQ(KmerIndex::bucket_bits(16, 4'000'000), 17);  // 30.5 keys per bucket
  for (std::size_t keys : {100u, 5'000u, 1'000'000u, 40'000'000u}) {
    const int bits = KmerIndex::bucket_bits(16, keys);
    EXPECT_GE(keys >> bits, KmerIndex::kKeysPerBucket);
    EXPECT_LT(keys >> bits, 2 * KmerIndex::kKeysPerBucket);
  }
  // Capped at 2k: k = 4 has 256 keys at most, never more than 2^8 buckets.
  EXPECT_EQ(KmerIndex::bucket_bits(4, std::size_t{1} << 40), 8);
}

TEST(KmerIndexBuckets, LookupsEqualBinarySearchAcrossK) {
  for (int k : {4, 5, 16, 31}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    util::Xoshiro256 rng(200 + static_cast<std::uint64_t>(k));
    auto text = saloba::testing::random_seq_with_n(rng, 20000, 0.01);
    KmerIndex index(text, k);
    expect_matches_sort_build(index, text);
    expect_bucketed_lookups_exact(index);
    EXPECT_GT(index.buckets().size(), 2u);  // more than one bucket
  }
}

TEST(KmerIndexBuckets, BatchLookupEqualsSingleLookups) {
  for (int k : {4, 16, 31}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    util::Xoshiro256 rng(250 + static_cast<std::uint64_t>(k));
    auto text = saloba::testing::random_seq(rng, 8000);
    KmerIndex index(text, k);
    // Present keys, random (mostly absent) keys, and keys above the mask.
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 300; ++i) {
      switch (i % 3) {
        case 0: keys.push_back(index.keys()[rng.below(index.keys().size())]); break;
        case 1: keys.push_back(rng() & KmerIndex::kmer_mask(k)); break;
        default: keys.push_back(KmerIndex::kmer_mask(k) + 1 + rng.below(1000)); break;
      }
    }
    std::vector<std::span<const std::uint32_t>> runs(keys.size());
    index.lookup_batch(keys, runs);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] > KmerIndex::kmer_mask(k)) {
        EXPECT_TRUE(runs[i].empty());
        continue;
      }
      auto want = index.lookup_packed(keys[i]);
      EXPECT_EQ(runs[i].data(), want.data());
      EXPECT_EQ(runs[i].size(), want.size());
    }
    index.lookup_batch({}, {});  // an empty batch is a no-op
  }
}

TEST(KmerIndexBuckets, DegenerateTexts) {
  for (int k : {4, 5, 16, 31}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    // Shorter than k: no keys, one empty bucket.
    std::vector<seq::BaseCode> shorter(static_cast<std::size_t>(k) - 1, seq::kBaseC);
    KmerIndex short_index(shorter, k);
    EXPECT_EQ(short_index.distinct_kmers(), 0u);
    EXPECT_EQ(std::vector<std::uint32_t>(short_index.buckets().begin(),
                                         short_index.buckets().end()),
              (std::vector<std::uint32_t>{0, 0}));
    EXPECT_TRUE(short_index.lookup_packed(0).empty());
    expect_matches_sort_build(short_index, shorter);

    // All N: nothing indexed, every lookup empty.
    std::vector<seq::BaseCode> all_n(5000, seq::kBaseN);
    KmerIndex n_index(all_n, k);
    EXPECT_EQ(n_index.indexed_positions(), 0u);
    expect_bucketed_lookups_exact(n_index);
    expect_matches_sort_build(n_index, all_n);

    // One repeated base: one key holding every position.
    std::vector<seq::BaseCode> all_a(3000, seq::kBaseA);
    KmerIndex a_index(all_a, k);
    ASSERT_EQ(a_index.distinct_kmers(), 1u);
    EXPECT_EQ(a_index.lookup_packed(0).size(), 3000u - static_cast<std::size_t>(k) + 1);
    expect_bucketed_lookups_exact(a_index);
    expect_matches_sort_build(a_index, all_a);
  }
}

TEST(KmerIndexBuckets, LowComplexityTextCrowdsOneBucket) {
  // 97% A: most distinct keys start with a run of A, so their top bits are
  // zero and bucket 0 holds most of the key array.
  for (int k : {5, 16, 31}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    util::Xoshiro256 rng(300 + static_cast<std::uint64_t>(k));
    std::vector<seq::BaseCode> text(60000, seq::kBaseA);
    for (auto& b : text) {
      if (rng.bernoulli(0.03)) b = static_cast<seq::BaseCode>(rng.below(4));
    }
    KmerIndex index(text, k);
    ASSERT_GT(index.buckets().size(), 2u);
    EXPECT_GT(index.buckets()[1], index.distinct_kmers() / 2) << "fixture lost its skew";
    expect_matches_sort_build(index, text);
    expect_bucketed_lookups_exact(index);
  }
}

TEST(KmerIndexDeath, RejectsBadK) {
  auto text = seq::encode_string("ACGTACGT");
  EXPECT_DEATH(KmerIndex(text, 2), "k must be");
  EXPECT_DEATH(KmerIndex(text, 40), "k must be");
}

}  // namespace
}  // namespace saloba::seedext
