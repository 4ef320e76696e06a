// seedext::SharedIndex coverage: on-disk round trips (mmap load bit-identical
// to the in-memory build), malformed-file rejection, the in-process registry
// (dedup, stats, weak lifetime), reference sharding (merged lookups and seeds
// bit-identical to the monolithic index, weighted-LPT lane placement), and
// end-to-end SAM byte-identity through ReadMapper for the mmap-backed and
// sharded seeding paths.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aligner.hpp"
#include "seedext/pipeline.hpp"
#include "seedext/sam_output.hpp"
#include "seedext/seeding.hpp"
#include "seedext/shared_index.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"
#include "seq/sam.hpp"
#include "../support/test_support.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace saloba::seedext {
namespace {

namespace fs = std::filesystem;

/// A unique path under the test temp dir (files are cleaned up by gtest).
std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) /
          (std::string("saloba_index_") + name + ".idx"))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fuzz genome with embedded N runs (unindexable stretches) so round trips
/// cover keys that vanish near shard/window boundaries.
std::vector<seq::BaseCode> fuzz_genome(std::uint64_t seed, std::size_t len) {
  util::Xoshiro256 rng(seed);
  auto g = testing::random_seq_with_n(rng, len, 0.01);
  // A couple of contiguous N runs, including one at the very start.
  for (std::size_t i = 0; i < std::min<std::size_t>(7, len); ++i) g[i] = seq::kBaseN;
  if (len > 200) {
    for (std::size_t i = len / 2; i < len / 2 + 40; ++i) g[i] = seq::kBaseN;
  }
  return g;
}

void expect_same_kmer_arrays(const KmerIndex& a, const KmerIndex& b) {
  ASSERT_EQ(a.k(), b.k());
  ASSERT_EQ(a.keys().size(), b.keys().size());
  ASSERT_EQ(a.offsets().size(), b.offsets().size());
  ASSERT_EQ(a.entries().size(), b.entries().size());
  ASSERT_EQ(a.buckets().size(), b.buckets().size());
  EXPECT_TRUE(std::equal(a.keys().begin(), a.keys().end(), b.keys().begin()));
  EXPECT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(), b.offsets().begin()));
  EXPECT_TRUE(std::equal(a.entries().begin(), a.entries().end(), b.entries().begin()));
  EXPECT_TRUE(std::equal(a.buckets().begin(), a.buckets().end(), b.buckets().begin()));
}

/// Recomputes a file image's payload checksum (util::fnv1a64_4lane over
/// every byte after the header), so a test's edit reaches the section
/// checks instead of failing the checksum.
void rewrite_checksum(std::string& bytes) {
  const std::uint64_t sum = util::fnv1a64_4lane(std::as_bytes(
      std::span(bytes.data() + sizeof(IndexFileHeader), bytes.size() - sizeof(IndexFileHeader))));
  std::memcpy(bytes.data() + offsetof(IndexFileHeader, payload_checksum), &sum, sizeof(sum));
}

/// Message of the IndexFormatError `load` throws (empty if it loads).
std::string load_error(const std::string& path, std::span<const seq::BaseCode> genome,
                       const IndexOptions& options) {
  try {
    SharedIndex::load(path, genome, options);
  } catch (const IndexFormatError& e) {
    return e.what();
  }
  return "";
}

TEST(SharedIndexRoundTrip, KmerBitIdenticalAcrossKBoundaries) {
  // k-range boundaries (kMinK, a typical k, kMaxK) on fuzzed genomes with
  // N runs: the mmap-loaded arrays must equal the built ones verbatim, and
  // so must every lookup and seed list.
  for (int k : {KmerIndex::kMinK, 16, KmerIndex::kMaxK}) {
    auto genome = fuzz_genome(11 + static_cast<std::uint64_t>(k), 20000);
    IndexOptions options{k, /*kmer=*/true, /*fm=*/false};
    auto built = SharedIndex::build(genome, options);
    std::string path = temp_path("roundtrip_k" + std::to_string(k));
    write_shared_index(path, genome, k, &built->kmer(), nullptr);

    auto loaded = SharedIndex::load(path, genome, options);
    EXPECT_TRUE(loaded->mmap_backed());
    EXPECT_FALSE(built->mmap_backed());
    EXPECT_EQ(loaded->genome_bases(), genome.size());
    EXPECT_EQ(loaded->genome_checksum(), built->genome_checksum());
    expect_same_kmer_arrays(built->kmer(), loaded->kmer());
    EXPECT_EQ(loaded->kmer().buckets().size(),
              (std::size_t{1} << KmerIndex::bucket_bits(k, built->kmer().distinct_kmers())) + 1);

    util::Xoshiro256 rng(99);
    SeedingParams params;
    params.min_seed_len = k;
    for (int trial = 0; trial < 50; ++trial) {
      std::size_t pos = rng.below(genome.size() - static_cast<std::size_t>(k));
      std::span<const seq::BaseCode> kmer(genome.data() + pos, static_cast<std::size_t>(k));
      auto a = built->kmer().lookup(kmer);
      auto b = loaded->kmer().lookup(kmer);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
    for (int trial = 0; trial < 10; ++trial) {
      std::size_t pos = rng.below(genome.size() - 120);
      std::vector<seq::BaseCode> read(genome.begin() + static_cast<std::ptrdiff_t>(pos),
                                      genome.begin() + static_cast<std::ptrdiff_t>(pos + 120));
      read = testing::mutate(rng, read, 0.02);
      EXPECT_EQ(find_seeds(built->kmer(), genome, read, params),
                find_seeds(loaded->kmer(), genome, read, params));
    }
  }
}

TEST(SharedIndexRoundTrip, FmSectionBitIdentical) {
  auto genome = fuzz_genome(23, 9000);
  IndexOptions options{16, /*kmer=*/false, /*fm=*/true};
  auto built = SharedIndex::build(genome, options);
  std::string path = temp_path("roundtrip_fm");
  save_shared_index(path, genome, options);

  auto loaded = SharedIndex::load(path, genome, options);
  ASSERT_TRUE(loaded->has_fm());
  EXPECT_FALSE(loaded->has_kmer());
  const FmIndex& a = built->fm();
  const FmIndex& b = loaded->fm();
  ASSERT_EQ(a.bwt().size(), b.bwt().size());
  EXPECT_TRUE(std::equal(a.bwt().begin(), a.bwt().end(), b.bwt().begin()));
  EXPECT_EQ(a.primary(), b.primary());
  ASSERT_EQ(a.suffix_array().size(), b.suffix_array().size());
  EXPECT_TRUE(std::equal(a.suffix_array().begin(), a.suffix_array().end(),
                         b.suffix_array().begin()));

  util::Xoshiro256 rng(5);
  SeedingParams params;
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t len = 20 + rng.below(60);
    std::size_t pos = rng.below(genome.size() - len);
    std::span<const seq::BaseCode> pattern(genome.data() + pos, len);
    EXPECT_EQ(a.count(pattern), b.count(pattern));
    EXPECT_EQ(a.locate(pattern), b.locate(pattern));
    std::vector<seq::BaseCode> read(pattern.begin(), pattern.end());
    EXPECT_EQ(find_seeds_fm(a, read, params), find_seeds_fm(b, read, params));
  }
}

TEST(SharedIndexRoundTrip, BothSectionsInOneFile) {
  auto genome = fuzz_genome(31, 6000);
  IndexOptions both{12, /*kmer=*/true, /*fm=*/true};
  std::string path = temp_path("roundtrip_both");
  save_shared_index(path, genome, both);
  auto loaded = SharedIndex::load(path, genome, both);
  EXPECT_TRUE(loaded->has_kmer());
  EXPECT_TRUE(loaded->has_fm());
  auto built = SharedIndex::build(genome, both);
  expect_same_kmer_arrays(built->kmer(), loaded->kmer());
  // A kmer-only consumer can open the same file too.
  auto kmer_only =
      SharedIndex::load(path, genome, IndexOptions{12, /*kmer=*/true, /*fm=*/false});
  EXPECT_TRUE(kmer_only->has_kmer());
}

struct RejectionFixture : ::testing::Test {
  std::vector<seq::BaseCode> genome = fuzz_genome(47, 4000);
  IndexOptions options{14, /*kmer=*/true, /*fm=*/false};
  std::string path = temp_path("rejection");

  void SetUp() override { save_shared_index(path, genome, options); }
};

TEST_F(RejectionFixture, RejectsTruncatedFile) {
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 200u);
  spew(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(SharedIndex::load(path, genome, options), IndexFormatError);
  // Shorter than the header entirely.
  spew(path, bytes.substr(0, 40));
  EXPECT_THROW(SharedIndex::load(path, genome, options), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsCorruptedPayloadByte) {
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), sizeof(IndexFileHeader) + 16);
  bytes[sizeof(IndexFileHeader) + 11] ^= 0x40;  // one flipped payload bit
  spew(path, bytes);
  EXPECT_THROW(SharedIndex::load(path, genome, options), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsTrailingGarbage) {
  std::string bytes = slurp(path);
  bytes += std::string(16, '\x7f');
  spew(path, bytes);
  EXPECT_THROW(SharedIndex::load(path, genome, options), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsWrongMagic) {
  std::string bytes = slurp(path);
  bytes[0] = 'X';
  spew(path, bytes);
  EXPECT_THROW(SharedIndex::load(path, genome, options), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsWrongVersion) {
  std::string bytes = slurp(path);
  bytes[8] = static_cast<char>(kIndexFormatVersion + 1);  // header version field
  spew(path, bytes);
  EXPECT_THROW(SharedIndex::load(path, genome, options), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsVersionOneFile) {
  // A genuine version-1 image: the same header, the k-mer section without
  // a bucket table, and the one-lane fnv1a64 payload checksum it carried.
  auto built = SharedIndex::build(genome, options);
  const KmerIndex& kmer = built->kmer();
  std::string payload;
  auto append = [&](const void* data, std::size_t n) {
    payload.append(static_cast<const char*>(data), n);
  };
  append(kmer.keys().data(), kmer.keys().size_bytes());
  append(kmer.offsets().data(), kmer.offsets().size_bytes());
  append(kmer.entries().data(), kmer.entries().size_bytes());
  payload.resize((payload.size() + 7) & ~std::size_t{7}, '\0');

  std::string bytes = slurp(path);
  IndexFileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  ASSERT_EQ(h.version, 2u);
  h.version = 1;
  h.payload_checksum = util::fnv1a64(std::as_bytes(std::span(payload.data(), payload.size())));
  std::string v1(reinterpret_cast<const char*>(&h), sizeof(h));
  spew(path, v1 + payload);
  EXPECT_NE(load_error(path, genome, options).find("format version 1"), std::string::npos);
}

/// The bucket table's byte offset in the fixture's file: it follows the
/// keys, offsets and entries, 8-byte aligned.
std::size_t bucket_section_offset(const KmerIndex& kmer) {
  const std::size_t before = kmer.keys().size_bytes() + kmer.offsets().size_bytes() +
                             kmer.entries().size_bytes();
  return sizeof(IndexFileHeader) + ((before + 7) & ~std::size_t{7});
}

TEST_F(RejectionFixture, RejectsMalformedBucketTable) {
  auto built = SharedIndex::build(genome, options);
  const KmerIndex& kmer = built->kmer();
  const std::size_t slots = kmer.buckets().size();
  ASSERT_GT(slots, 4u);
  const std::string good = slurp(path);
  const std::size_t at = bucket_section_offset(kmer);
  ASSERT_EQ(std::memcmp(good.data() + at, kmer.buckets().data(), kmer.buckets().size_bytes()), 0);
  auto slot = [&](std::string& bytes, std::size_t i, std::uint32_t value) {
    std::memcpy(bytes.data() + at + i * sizeof(std::uint32_t), &value, sizeof(value));
  };

  std::string inverted = good;  // one slot above its successor
  slot(inverted, slots / 2, kmer.buckets()[slots / 2 + 1] + 1);
  std::string first_nonzero = good;
  slot(first_nonzero, 0, 1);
  std::string short_last = good;
  slot(short_last, slots - 1, static_cast<std::uint32_t>(kmer.distinct_kmers() - 1));
  std::string long_last = good;
  slot(long_last, slots - 1, static_cast<std::uint32_t>(kmer.distinct_kmers() + 1));
  for (std::string* bytes : {&inverted, &first_nonzero, &short_last, &long_last}) {
    rewrite_checksum(*bytes);
    spew(path, *bytes);
    EXPECT_NE(load_error(path, genome, options).find("bucket table"), std::string::npos);
  }
  // The helper itself leaves a good image loadable.
  std::string resummed = good;
  rewrite_checksum(resummed);
  EXPECT_EQ(resummed, good);
  spew(path, resummed);
  EXPECT_EQ(load_error(path, genome, options), "");
}

TEST_F(RejectionFixture, RejectsDifferentGenome) {
  util::Xoshiro256 rng(3);
  auto other = testing::mutate(rng, genome, 0.01);
  EXPECT_THROW(SharedIndex::load(path, other, options), IndexFormatError);
  // Same content, different length.
  auto shorter = genome;
  shorter.pop_back();
  EXPECT_THROW(SharedIndex::load(path, shorter, options), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsMissingSectionAndWrongK) {
  IndexOptions wants_fm{options.k, /*kmer=*/true, /*fm=*/true};
  EXPECT_THROW(SharedIndex::load(path, genome, wants_fm), IndexFormatError);
  IndexOptions wrong_k{options.k + 1, /*kmer=*/true, /*fm=*/false};
  EXPECT_THROW(SharedIndex::load(path, genome, wrong_k), IndexFormatError);
}

TEST_F(RejectionFixture, RejectsMissingFile) {
  EXPECT_THROW(SharedIndex::load(temp_path("never_written"), genome, options),
               IndexFormatError);
}

TEST(SharedIndexRegistry, DeduplicatesLiveInstancesAndRebuildsAfterExpiry) {
  auto& reg = IndexRegistry::instance();
  reg.reset_stats();
  auto genome = fuzz_genome(61, 5000);
  IndexOptions options{16, true, false};

  auto a = reg.acquire_memory(genome, options);
  auto b = reg.acquire_memory(genome, options);
  EXPECT_EQ(a.get(), b.get());  // one physical index, two handles
  EXPECT_EQ(reg.stats().builds, 1u);
  EXPECT_EQ(reg.stats().hits, 1u);

  // Different k is a different index.
  auto c = reg.acquire_memory(genome, IndexOptions{18, true, false});
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(reg.stats().builds, 2u);

  // Weak lifetime: dropping every handle frees the index; the next acquire
  // builds anew rather than resurrecting a dead pointer.
  a.reset();
  b.reset();
  auto d = reg.acquire_memory(genome, options);
  EXPECT_EQ(reg.stats().builds, 3u);
  EXPECT_GE(reg.live_entries(), 2u);
}

TEST(SharedIndexRegistry, FileAcquireBuildsOnceThenMapsAndShares) {
  auto& reg = IndexRegistry::instance();
  reg.reset_stats();
  auto genome = fuzz_genome(71, 5000);
  IndexOptions options{16, true, false};
  std::string path = temp_path("registry_file");
  fs::remove(path);

  // Missing file: build + save + load (build-once cold start).
  auto a = reg.acquire_file(path, genome, options);
  EXPECT_TRUE(a->mmap_backed());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(reg.stats().builds, 1u);
  EXPECT_EQ(reg.stats().loads, 1u);

  // Live mapping is shared, not re-mapped.
  auto b = reg.acquire_file(path, genome, options);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(reg.stats().hits, 1u);

  // After every handle dies, the warm path is a pure load — no rebuild.
  a.reset();
  b.reset();
  auto c = reg.acquire_file(path, genome, options);
  EXPECT_TRUE(c->mmap_backed());
  EXPECT_EQ(reg.stats().builds, 1u);
  EXPECT_EQ(reg.stats().loads, 2u);
}

TEST(ShardedIndex, LookupBitIdenticalToMonolithicAcrossShardCounts) {
  auto genome = fuzz_genome(83, 30000);
  const int k = 16;
  KmerIndex mono(genome, k);
  util::Xoshiro256 rng(17);

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                             std::size_t{7}, std::size_t{16}}) {
    IndexShardingOptions options;
    options.shards = shards;
    ShardedKmerIndex sharded(genome, k, options);
    ASSERT_EQ(sharded.shards().size(), shards);
    // Windows tile the genome: owned ranges are disjoint and exhaustive.
    std::size_t covered = 0;
    for (const auto& s : sharded.shards()) {
      EXPECT_EQ(s.begin, covered);
      EXPECT_LE(s.end, s.text_end);
      EXPECT_LE(s.text_end, std::min(genome.size(), s.end + static_cast<std::size_t>(k) - 1));
      covered = s.end;
    }
    EXPECT_EQ(covered, genome.size());

    for (int trial = 0; trial < 200; ++trial) {
      std::size_t pos = rng.below(genome.size() - static_cast<std::size_t>(k));
      std::span<const seq::BaseCode> kmer(genome.data() + pos, static_cast<std::size_t>(k));
      auto want = mono.lookup(kmer);
      auto got = sharded.lookup(kmer);
      ASSERT_EQ(got.size(), want.size()) << shards << " shards, kmer at " << pos;
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
    }

    SeedingParams params;
    for (int trial = 0; trial < 10; ++trial) {
      std::size_t pos = rng.below(genome.size() - 150);
      std::vector<seq::BaseCode> read(genome.begin() + static_cast<std::ptrdiff_t>(pos),
                                      genome.begin() + static_cast<std::ptrdiff_t>(pos + 150));
      read = testing::mutate(rng, read, 0.03);
      EXPECT_EQ(find_seeds(mono, genome, read, params),
                find_seeds(sharded, genome, read, params));
    }
  }
}

TEST(ShardedIndex, TinyGenomeAndOverAsking) {
  // More shards than bases: the count clamps, nothing crashes, lookups agree.
  util::Xoshiro256 rng(29);
  auto genome = testing::random_seq(rng, 10);
  const int k = 4;
  KmerIndex mono(genome, k);
  IndexShardingOptions options;
  options.shards = 64;
  ShardedKmerIndex sharded(genome, k, options);
  EXPECT_LE(sharded.shards().size(), genome.size());
  for (std::size_t pos = 0; pos + k <= genome.size(); ++pos) {
    std::span<const seq::BaseCode> kmer(genome.data() + pos, k);
    auto want = mono.lookup(kmer);
    auto got = sharded.lookup(kmer);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
  }
}

TEST(ShardedIndex, WeightedLptPlacementSkewsTowardFastLanes) {
  auto genome = fuzz_genome(97, 40000);
  IndexShardingOptions options;
  options.shards = 8;
  options.lane_weights = {3.0, 1.0};
  ShardedKmerIndex sharded(genome, 16, options);
  auto loads = sharded.lane_loads();
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_GT(loads[0], 0.0);
  EXPECT_GT(loads[1], 0.0);
  // The 3x lane should carry roughly 3x the window bases (equal shard sizes
  // make LPT land 6/2 of 8 shards).
  EXPECT_GT(loads[0], 2.0 * loads[1]);
  for (const auto& s : sharded.shards()) {
    EXPECT_GE(s.lane, 0);
    EXPECT_LT(s.lane, 2);
  }
}

TEST(ShardedIndex, PersistedShardsRoundTripThroughRegistry) {
  auto& reg = IndexRegistry::instance();
  auto genome = fuzz_genome(101, 20000);
  const int k = 16;
  KmerIndex mono(genome, k);
  IndexShardingOptions options;
  options.shards = 4;
  options.path_prefix = temp_path("shard_prefix");
  for (std::size_t i = 0; i < options.shards; ++i) {
    fs::remove(options.path_prefix + ".shard" + std::to_string(i));
  }

  reg.reset_stats();
  {
    ShardedKmerIndex cold(genome, k, options);  // builds + saves every shard
    EXPECT_EQ(reg.stats().builds, options.shards);
    for (std::size_t i = 0; i < options.shards; ++i) {
      EXPECT_TRUE(fs::exists(options.path_prefix + ".shard" + std::to_string(i)));
    }
    for (const auto& s : cold.shards()) EXPECT_TRUE(s.index->mmap_backed());
  }  // drop the cold handles so the warm start exercises the load path

  // Warm start: all shards load from their files, no rebuild anywhere.
  reg.reset_stats();
  ShardedKmerIndex warm(genome, k, options);
  EXPECT_EQ(reg.stats().builds, 0u);
  EXPECT_EQ(reg.stats().loads, options.shards);

  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::size_t pos = rng.below(genome.size() - static_cast<std::size_t>(k));
    std::span<const seq::BaseCode> kmer(genome.data() + pos, static_cast<std::size_t>(k));
    auto want = mono.lookup(kmer);
    auto got = warm.lookup(kmer);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
  }
}

/// End-to-end fixture: one genome, simulated reads, and the plain in-memory
/// mapper whose SAM output is the oracle for every shared-index path.
struct EndToEnd : ::testing::Test {
  std::vector<seq::BaseCode> genome;
  std::vector<seq::Sequence> reads;
  std::vector<std::vector<seq::BaseCode>> read_seqs;

  void SetUp() override {
    seq::GenomeParams gp;
    gp.length = 60000;
    gp.n_fraction = 0.001;
    gp.repeat_fraction = 0.05;
    genome = seq::generate_genome(gp);
    seq::ReadProfile profile = seq::ReadProfile::equal_length(150);
    profile.mutation_rate = 0.01;
    seq::ReadSimulator sim(genome, profile, 13);
    for (auto& r : sim.simulate(40)) reads.push_back(r.read);
    for (const auto& r : reads) read_seqs.push_back(r.bases);
  }

  std::string sam_of(const ReadMapper& mapper) const {
    core::Aligner aligner{core::AlignerOptions{}};
    auto mappings = mapper.map_batch(read_seqs, aligner.batch_extender());
    std::ostringstream out;
    seq::SamHeader h;
    h.reference_name = "chrT";
    h.reference_length = genome.size();
    seq::SamWriter writer(out, h);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      writer.write(to_sam_record(mapper, reads[i], mappings[i], "chrT"));
    }
    return out.str();
  }
};

TEST_F(EndToEnd, MmapBackedMapperEmitsIdenticalSamBytes) {
  ReadMapper plain(genome, MapperParams{});
  std::string want = sam_of(plain);
  EXPECT_NE(want.find("chrT"), std::string::npos);

  MapperParams mmap_params;
  mmap_params.index_path = temp_path("e2e_mmap");
  fs::remove(mmap_params.index_path);
  ReadMapper cold(genome, mmap_params);  // builds + saves + maps
  EXPECT_EQ(sam_of(cold), want);

  ReadMapper warm(genome, mmap_params);  // pure mmap load
  EXPECT_EQ(sam_of(warm), want);
}

TEST_F(EndToEnd, ShardedMapperEmitsIdenticalSamBytes) {
  ReadMapper plain(genome, MapperParams{});
  std::string want = sam_of(plain);

  MapperParams sharded;
  sharded.index_shards = 3;
  sharded.index_lane_weights = {2.0, 1.0};
  EXPECT_EQ(sam_of(ReadMapper(genome, sharded)), want);

  // Sharded + persisted sub-indices (the mmap'd sharded cold/warm start).
  sharded.index_path = temp_path("e2e_sharded");
  for (std::size_t i = 0; i < sharded.index_shards; ++i) {
    fs::remove(sharded.index_path + ".shard" + std::to_string(i));
  }
  EXPECT_EQ(sam_of(ReadMapper(genome, sharded)), want);  // cold
  EXPECT_EQ(sam_of(ReadMapper(genome, sharded)), want);  // warm
}

TEST_F(EndToEnd, PipelineBuildsSharedIndexExactlyOnce) {
  // The satellite regression: two mappers over one reference must share one
  // physical index — one build, every later acquisition a registry hit.
  auto& reg = IndexRegistry::instance();
  reg.reset_stats();
  ReadMapper first(genome, MapperParams{});
  ReadMapper second(genome, MapperParams{});
  EXPECT_EQ(reg.stats().builds, 1u);
  EXPECT_GE(reg.stats().hits, 1u);
  EXPECT_EQ(sam_of(first), sam_of(second));
}

}  // namespace
}  // namespace saloba::seedext
