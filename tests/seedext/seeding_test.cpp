#include "seedext/seeding.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "../support/test_support.hpp"
#include "seedext/shared_index.hpp"
#include "seq/alphabet.hpp"

namespace saloba::seedext {
namespace {

void expect_seeds_are_exact_matches(const std::vector<Seed>& seeds,
                                    const std::vector<seq::BaseCode>& genome,
                                    const std::vector<seq::BaseCode>& read) {
  for (const Seed& s : seeds) {
    ASSERT_LE(s.qpos + s.len, read.size());
    ASSERT_LE(s.rpos + s.len, genome.size());
    for (std::uint32_t i = 0; i < s.len; ++i) {
      EXPECT_EQ(genome[s.rpos + i], read[s.qpos + i]);
      EXPECT_LT(genome[s.rpos + i], seq::kBaseN);  // N never seeds
    }
  }
}

void expect_seeds_maximal(const std::vector<Seed>& seeds,
                          const std::vector<seq::BaseCode>& genome,
                          const std::vector<seq::BaseCode>& read) {
  auto matches = [](seq::BaseCode a, seq::BaseCode b) { return a == b && a < 4; };
  for (const Seed& s : seeds) {
    if (s.qpos > 0 && s.rpos > 0) {
      EXPECT_FALSE(matches(genome[s.rpos - 1], read[s.qpos - 1])) << "extendable left";
    }
    if (s.qpos + s.len < read.size() && s.rpos + s.len < genome.size()) {
      EXPECT_FALSE(matches(genome[s.rpos + s.len], read[s.qpos + s.len]))
          << "extendable right";
    }
  }
}

struct Fixture {
  std::vector<seq::BaseCode> genome;
  std::vector<seq::BaseCode> read;
  std::size_t planted_pos;

  static Fixture make(std::uint64_t seed, std::size_t genome_len, std::size_t read_len,
                      double mutate_rate) {
    util::Xoshiro256 rng(seed);
    Fixture f;
    f.genome = saloba::testing::random_seq(rng, genome_len);
    f.planted_pos = rng.below(genome_len - read_len);
    f.read.assign(f.genome.begin() + static_cast<std::ptrdiff_t>(f.planted_pos),
                  f.genome.begin() + static_cast<std::ptrdiff_t>(f.planted_pos + read_len));
    f.read = saloba::testing::mutate(rng, f.read, mutate_rate);
    return f;
  }
};

// Runs first: death tests fork, and later suites start OpenMP threads.
TEST(SeedingDeath, RejectsZeroStride) {
  util::Xoshiro256 rng(5);
  auto genome = saloba::testing::random_seq(rng, 500);
  KmerIndex index(genome, 12);
  SeedingParams params;
  params.stride = 0;
  EXPECT_DEATH(find_seeds(index, genome, genome, params), "stride");
}

TEST(KmerSeeding, FindsPlantedExactRead) {
  auto f = Fixture::make(141, 20000, 100, 0.0);
  KmerIndex index(f.genome, 16);
  SeedingParams params;
  auto seeds = find_seeds(index, f.genome, f.read, params);
  ASSERT_FALSE(seeds.empty());
  bool found = false;
  for (const Seed& s : seeds) {
    found |= s.rpos == f.planted_pos && s.qpos == 0 && s.len == 100;
  }
  EXPECT_TRUE(found);
  expect_seeds_are_exact_matches(seeds, f.genome, f.read);
  expect_seeds_maximal(seeds, f.genome, f.read);
}

TEST(KmerSeeding, MutatedReadProducesShorterSeeds) {
  auto f = Fixture::make(142, 20000, 200, 0.03);
  KmerIndex index(f.genome, 16);
  SeedingParams params;
  auto seeds = find_seeds(index, f.genome, f.read, params);
  ASSERT_FALSE(seeds.empty());
  expect_seeds_are_exact_matches(seeds, f.genome, f.read);
  expect_seeds_maximal(seeds, f.genome, f.read);
  for (const Seed& s : seeds) {
    EXPECT_GE(s.len, 19u);  // min_seed_len
  }
}

TEST(KmerSeeding, NoDuplicateSeeds) {
  auto f = Fixture::make(143, 10000, 150, 0.02);
  KmerIndex index(f.genome, 12);
  SeedingParams params;
  params.min_seed_len = 12;
  auto seeds = find_seeds(index, f.genome, f.read, params);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> unique;
  for (const Seed& s : seeds) unique.insert({s.qpos, s.rpos, s.len});
  EXPECT_EQ(unique.size(), seeds.size());
}

TEST(KmerSeeding, RespectsMaxHits) {
  // Highly repetitive genome: hits beyond the cap are skipped entirely.
  std::vector<seq::BaseCode> genome;
  for (int i = 0; i < 500; ++i) {
    auto unit = seq::encode_string("ACGTACGTGGCCTTAA");
    genome.insert(genome.end(), unit.begin(), unit.end());
  }
  KmerIndex index(genome, 16);
  SeedingParams params;
  params.max_hits = 4;
  params.min_seed_len = 16;
  std::vector<seq::BaseCode> read = seq::encode_string("ACGTACGTGGCCTTAAACGTACGTGGCCTTAA");
  auto seeds = find_seeds(index, genome, read, params);
  EXPECT_TRUE(seeds.empty());  // every k-mer exceeds the cap
}

TEST(FmSeeding, FindsPlantedExactRead) {
  auto f = Fixture::make(144, 8000, 80, 0.0);
  FmIndex index(f.genome);
  SeedingParams params;
  auto seeds = find_seeds_fm(index, f.read, params);
  ASSERT_FALSE(seeds.empty());
  bool found = false;
  for (const Seed& s : seeds) {
    found |= s.rpos == f.planted_pos && s.len == 80;
  }
  EXPECT_TRUE(found);
  expect_seeds_are_exact_matches(seeds, f.genome, f.read);
}

TEST(FmSeeding, SeedsAreExactMatchesOnMutatedReads) {
  auto f = Fixture::make(145, 8000, 150, 0.04);
  FmIndex index(f.genome);
  SeedingParams params;
  params.min_seed_len = 15;
  auto seeds = find_seeds_fm(index, f.read, params);
  ASSERT_FALSE(seeds.empty());
  expect_seeds_are_exact_matches(seeds, f.genome, f.read);
}

TEST(Seeding, ShortReadYieldsNothing) {
  auto f = Fixture::make(146, 5000, 100, 0.0);
  KmerIndex index(f.genome, 16);
  SeedingParams params;
  std::vector<seq::BaseCode> tiny = seq::encode_string("ACGT");
  EXPECT_TRUE(find_seeds(index, f.genome, tiny, params).empty());
}

TEST(Seeding, SeedDiagonalHelper) {
  Seed s{10, 100, 20};
  EXPECT_EQ(s.diagonal(), 90);
}

// ---------------------------------------------------------------------------
// Oracle: the seeding loop as it stood before hits were skipped — one
// lookup per sampled position, every hit extended to its maximal match,
// duplicates removed by (diagonal, end). find_seeds must return exactly
// its seed list on every index flavour.
// ---------------------------------------------------------------------------

Seed oracle_extend(std::span<const seq::BaseCode> genome, std::span<const seq::BaseCode> read,
                   Seed seed) {
  auto matches = [](seq::BaseCode a, seq::BaseCode b) { return a == b && a < seq::kBaseN; };
  while (seed.qpos > 0 && seed.rpos > 0 &&
         matches(genome[seed.rpos - 1], read[seed.qpos - 1])) {
    --seed.qpos;
    --seed.rpos;
    ++seed.len;
  }
  while (seed.qpos + seed.len < read.size() && seed.rpos + seed.len < genome.size() &&
         matches(genome[seed.rpos + seed.len], read[seed.qpos + seed.len])) {
    ++seed.len;
  }
  return seed;
}

/// What the oracle saw, so a test can assert its fixture exercised a case.
struct OracleCounts {
  std::size_t over_max_hits = 0;  ///< hit lists the repeat filter dropped
  std::size_t duplicates = 0;     ///< extended seeds the set removed
};

template <class Index>
std::vector<Seed> oracle_seeds(const Index& index, std::span<const seq::BaseCode> genome,
                               std::span<const seq::BaseCode> read,
                               const SeedingParams& params, OracleCounts* counts = nullptr) {
  std::vector<Seed> seeds;
  if (read.size() < static_cast<std::size_t>(index.k())) return seeds;
  std::set<std::pair<std::int64_t, std::uint32_t>> seen;
  const std::size_t last_q = read.size() - static_cast<std::size_t>(index.k());
  for (std::size_t q = 0; q <= last_q; q += static_cast<std::size_t>(params.stride)) {
    auto hits = index.lookup(read.subspan(q));
    if (counts && hits.size() > params.max_hits) ++counts->over_max_hits;
    if (hits.empty() || hits.size() > params.max_hits) continue;
    for (std::uint32_t rpos : hits) {
      Seed seed{static_cast<std::uint32_t>(q), rpos, static_cast<std::uint32_t>(index.k())};
      seed = oracle_extend(genome, read, seed);
      if (seed.len < static_cast<std::uint32_t>(params.min_seed_len)) continue;
      if (seen.insert({seed.diagonal(), seed.qpos + seed.len}).second) {
        seeds.push_back(seed);
      } else if (counts) {
        ++counts->duplicates;
      }
    }
  }
  std::sort(seeds.begin(), seeds.end(), [](const Seed& a, const Seed& b) {
    return a.qpos != b.qpos ? a.qpos < b.qpos : a.rpos < b.rpos;
  });
  return seeds;
}

constexpr int kOracleK = 12;

/// A random genome with planted repeats: one 300 bp unit copied 40 times
/// (more copies than the default max_hits of 32) and one 200 bp unit copied
/// 6 times (under it), each copy lightly mutated; an N run in the middle.
std::vector<seq::BaseCode> repeat_genome(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  auto genome = saloba::testing::random_seq(rng, 60000);
  auto plant = [&](std::size_t len, int copies) {
    auto unit = saloba::testing::random_seq(rng, len);
    for (int c = 0; c < copies; ++c) {
      auto copy = saloba::testing::mutate(rng, unit, 0.01);
      std::size_t at = 500 + rng.below(genome.size() - len - 1000);
      std::copy(copy.begin(), copy.end(), genome.begin() + static_cast<std::ptrdiff_t>(at));
    }
  };
  plant(300, 40);
  plant(200, 6);
  std::fill(genome.begin() + 30000, genome.begin() + 30050, seq::kBaseN);
  return genome;
}

/// Reads over the genome: mutated windows (some reverse-complemented), the
/// exact first and last bases (seeds touching both genome ends), windows
/// with N runs, and random noise.
std::vector<std::vector<seq::BaseCode>> oracle_reads(const std::vector<seq::BaseCode>& genome,
                                                     std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<seq::BaseCode>> reads;
  auto window = [&](std::size_t at, std::size_t len) {
    return std::vector<seq::BaseCode>(genome.begin() + static_cast<std::ptrdiff_t>(at),
                                      genome.begin() + static_cast<std::ptrdiff_t>(at + len));
  };
  for (int i = 0; i < 24; ++i) {
    const std::size_t len = 60 + rng.below(200);
    auto read = saloba::testing::mutate(rng, window(rng.below(genome.size() - len), len),
                                        0.02 + 0.01 * (i % 4));
    if (i % 3 == 0) read = seq::reverse_complement(read);
    reads.push_back(std::move(read));
  }
  reads.push_back(window(0, 150));
  reads.push_back(window(genome.size() - 150, 150));
  reads.push_back(saloba::testing::mutate(rng, window(0, 90), 0.02));
  reads.push_back(saloba::testing::mutate(rng, window(genome.size() - 90, 90), 0.02));
  for (int i = 0; i < 6; ++i) {
    auto read = window(rng.below(genome.size() - 200), 200);
    const std::size_t run = 1 + rng.below(15);
    const std::size_t at = i == 0 ? 0 : i == 1 ? 200 - run : rng.below(200 - run);
    std::fill(read.begin() + static_cast<std::ptrdiff_t>(at),
              read.begin() + static_cast<std::ptrdiff_t>(at + run), seq::kBaseN);
    reads.push_back(std::move(read));
  }
  reads.push_back(window(29980, 100));  // straddles the genome's N run
  reads.push_back(saloba::testing::random_seq(rng, 120));
  reads.push_back(std::vector<seq::BaseCode>(40, seq::kBaseN));
  reads.push_back(window(1000, kOracleK));  // exactly k bases
  return reads;
}

std::vector<SeedingParams> oracle_params() {
  std::vector<SeedingParams> out;
  for (int stride : {1, 2, 3}) {
    for (int min_len : {kOracleK - 4, kOracleK, kOracleK + 8}) {
      for (std::size_t max_hits : {std::size_t{4}, std::size_t{32}}) {
        SeedingParams p;
        p.stride = stride;
        p.min_seed_len = min_len;
        p.max_hits = max_hits;
        out.push_back(p);
      }
    }
  }
  return out;
}

class SeedingOracle : public ::testing::Test {
 protected:
  std::vector<seq::BaseCode> genome = repeat_genome(401);
  std::vector<std::vector<seq::BaseCode>> reads = oracle_reads(genome, 402);

  /// Runs every read under every parameter set through find_seeds and the
  /// oracle over `index`, and checks the fixture hit the cases it targets.
  template <class Index>
  void expect_matches_oracle(const Index& index) {
    OracleCounts counts;
    std::size_t seeds = 0;
    for (const SeedingParams& params : oracle_params()) {
      for (std::size_t r = 0; r < reads.size(); ++r) {
        auto want = oracle_seeds(index, genome, reads[r], params, &counts);
        ASSERT_EQ(find_seeds(index, genome, reads[r], params), want)
            << "read " << r << " stride " << params.stride << " min_seed_len "
            << params.min_seed_len << " max_hits " << params.max_hits;
        seeds += want.size();
      }
    }
    EXPECT_GT(seeds, 1000u);
    EXPECT_GT(counts.over_max_hits, 0u) << "max_hits never fired";
    EXPECT_GT(counts.duplicates, 0u) << "no hit re-extended a known match";
  }
};

TEST_F(SeedingOracle, MonolithicIndex) {
  KmerIndex index(genome, kOracleK);
  expect_matches_oracle(index);
}

TEST_F(SeedingOracle, MmapLoadedIndex) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "saloba_seeding_oracle.idx").string();
  const IndexOptions options{kOracleK, /*kmer=*/true, /*fm=*/false};
  save_shared_index(path, genome, options);
  auto loaded = SharedIndex::load(path, genome, options);
  ASSERT_TRUE(loaded->mmap_backed());
  expect_matches_oracle(loaded->kmer());
  std::filesystem::remove(path);
}

TEST_F(SeedingOracle, ShardedIndexes) {
  for (std::size_t shards : {1u, 3u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    IndexShardingOptions options;
    options.shards = shards;
    ShardedKmerIndex index(genome, kOracleK, options);
    expect_matches_oracle(index);
  }
}

}  // namespace
}  // namespace saloba::seedext
