#include "seedext/sam_output.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "align/traceback.hpp"
#include "align/traceback_engine.hpp"
#include "../support/test_support.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"

namespace saloba::seedext {
namespace {

struct Fixture {
  std::vector<seq::BaseCode> genome;
  std::unique_ptr<ReadMapper> mapper;

  Fixture() {
    seq::GenomeParams p;
    p.length = 200000;
    p.n_fraction = 0.0;
    p.repeat_fraction = 0.05;
    genome = seq::generate_genome(p);
    mapper = std::make_unique<ReadMapper>(genome, MapperParams{});
  }
};

TEST(SamOutput, MappedReadProducesValidRecord) {
  Fixture f;
  seq::Sequence read;
  read.name = "exact_read";
  read.bases.assign(f.genome.begin() + 5000, f.genome.begin() + 5150);
  auto mapping = f.mapper->map(read.bases);
  ASSERT_TRUE(mapping.mapped);

  auto record = to_sam_record(*f.mapper, read, mapping, "chrT");
  EXPECT_EQ(record.qname, "exact_read");
  EXPECT_FALSE(record.unmapped());
  EXPECT_EQ(record.rname, "chrT");
  EXPECT_EQ(record.pos, 5001u);  // SAM is 1-based
  EXPECT_EQ(record.cigar, "150M");
  EXPECT_GE(record.mapq, 50);
  ASSERT_FALSE(record.tags.empty());
  EXPECT_EQ(record.tags[0], "AS:i:150");
}

TEST(SamOutput, ReverseStrandSetsFlag) {
  Fixture f;
  seq::Sequence read;
  read.name = "rc_read";
  std::vector<seq::BaseCode> window(f.genome.begin() + 9000, f.genome.begin() + 9120);
  read.bases = seq::reverse_complement(window);
  auto mapping = f.mapper->map(read.bases);
  ASSERT_TRUE(mapping.mapped);
  ASSERT_TRUE(mapping.reverse_strand);
  auto record = to_sam_record(*f.mapper, read, mapping);
  EXPECT_TRUE(record.flags & seq::SamRecord::kFlagReverse);
  EXPECT_EQ(record.pos, 9001u);
}

TEST(SamOutput, UnmappedReadFlagged) {
  Fixture f;
  seq::Sequence read;
  read.name = "junk";
  read.bases = seq::encode_string(std::string(60, 'A'));  // unlikely unique hit
  ReadMapping unmapped;  // mapped = false
  auto record = to_sam_record(*f.mapper, read, unmapped);
  EXPECT_TRUE(record.unmapped());
  EXPECT_EQ(record.cigar, "*");
}

TEST(SamOutput, IndelReadGetsIndelCigar) {
  Fixture f;
  seq::Sequence read;
  read.name = "del_read";
  // 80 bases, skip 3, 70 more -> CIGAR should contain a 3D.
  read.bases.assign(f.genome.begin() + 20000, f.genome.begin() + 20080);
  read.bases.insert(read.bases.end(), f.genome.begin() + 20083, f.genome.begin() + 20153);
  auto mapping = f.mapper->map(read.bases);
  ASSERT_TRUE(mapping.mapped);
  auto record = to_sam_record(*f.mapper, read, mapping);
  EXPECT_NE(record.cigar.find("3D"), std::string::npos) << record.cigar;
}

TEST(SamOutput, MapqMonotoneInScore) {
  align::ScoringScheme s;
  int prev = -1;
  for (align::Score score : {0, 30, 60, 90, 120, 150}) {
    int q = mapq_from_score(score, 150, s);
    EXPECT_GE(q, prev);
    prev = q;
  }
  EXPECT_EQ(mapq_from_score(150, 150, s), 60);
  EXPECT_EQ(mapq_from_score(0, 150, s), 0);
  EXPECT_EQ(mapq_from_score(10, 0, s), 0);
}

TEST(SamOutput, EndToEndSamFileParsesBack) {
  Fixture f;
  seq::ReadProfile profile = seq::ReadProfile::equal_length(100);
  profile.mutation_rate = 0.0;
  profile.error_rate = 0.0;
  seq::ReadSimulator sim(f.genome, profile, 5);
  auto reads = sim.simulate(10);

  std::ostringstream out;
  seq::SamHeader header;
  header.reference_name = "chrT";
  header.reference_length = f.genome.size();
  seq::SamWriter writer(out, header);
  for (const auto& r : reads) {
    auto mapping = f.mapper->map(r.read.bases);
    writer.write(to_sam_record(*f.mapper, r.read, mapping, "chrT"));
  }
  std::istringstream in(out.str());
  auto records = seq::read_sam(in);
  ASSERT_EQ(records.size(), 10u);
  int mapped = 0;
  for (const auto& r : records) mapped += !r.unmapped();
  EXPECT_GE(mapped, 9);
}

TEST(SamOutput, TraceWindowsMatchesPerPairEngine) {
  // Read-like windows (query inside a longer, mutated reference window),
  // plus one pair that cannot score. A one-pair batch takes the per-pair
  // engine, larger ones the SIMD cohorts; positive-score traces must be
  // the per-pair engine's either way, and the zero-score pair scores 0.
  util::Xoshiro256 rng(77);
  std::vector<std::pair<std::vector<seq::BaseCode>, std::vector<seq::BaseCode>>> pairs;
  for (int i = 0; i < 20; ++i) {
    auto ref = saloba::testing::random_seq(rng, 150 + rng.below(200));
    const std::size_t len = 60 + rng.below(ref.size() - 80);
    const std::size_t at = rng.below(ref.size() - len + 1);
    auto query = saloba::testing::mutate(
        rng, std::vector<seq::BaseCode>(ref.begin() + static_cast<std::ptrdiff_t>(at),
                                        ref.begin() + static_cast<std::ptrdiff_t>(at + len)),
        0.05);
    pairs.emplace_back(std::move(query), std::move(ref));
  }
  pairs.emplace_back(std::vector<seq::BaseCode>(50, seq::kBaseN),
                     saloba::testing::random_seq(rng, 120));
  const align::ScoringScheme scoring;
  for (std::size_t size : {std::size_t{1}, std::size_t{2}, pairs.size()}) {
    for (std::size_t first = 0; first + size <= pairs.size(); first += size) {
      seq::PairBatch batch;
      for (std::size_t i = first; i < first + size; ++i) batch.add(pairs[i].first, pairs[i].second);
      batch.bands.assign(batch.size(), 0);
      const auto traced = trace_windows(batch, scoring);
      ASSERT_EQ(traced.size(), batch.size());
      for (std::size_t p = 0; p < batch.size(); ++p) {
        const auto want = align::banded_traceback(batch.refs[p], batch.queries[p], scoring).traced;
        if (want.end.score > 0) {
          EXPECT_EQ(traced[p], want) << "batch of " << size << ", pair " << first + p;
        } else {
          EXPECT_EQ(traced[p].end.score, 0) << "batch of " << size << ", pair " << first + p;
          EXPECT_TRUE(traced[p].cigar.empty());
        }
      }
    }
  }
}

}  // namespace
}  // namespace saloba::seedext
