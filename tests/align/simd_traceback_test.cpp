// The SIMD cohort traceback engine (align::simd::traceback_batch): every
// trace equals align::banded_traceback's whole TracedAlignment (endpoint,
// start, CIGAR, tie-breaks included) and, with z-drop off, the full-matrix
// oracle's; partial cohorts, mixed lengths, N runs, per-pair bands, z-dropped
// endpoints, zero scores, non-default scoring, the scalar fallbacks, and the
// generic and AVX2 kernels agreeing. `ctest -L simd` / `ctest -L traceback`.
#include <gtest/gtest.h>

#include <algorithm>

#include "../support/test_support.hpp"
#include "align/simd_engine.hpp"
#include "align/simd_kernel.hpp"
#include "align/traceback.hpp"
#include "align/traceback_engine.hpp"

namespace saloba::align {
namespace {

using saloba::testing::mutate;
using saloba::testing::random_seq;
using saloba::testing::random_seq_with_n;

/// `src` with substitutions, and insertions and deletions, each at rate `p`.
std::vector<seq::BaseCode> with_indels(util::Xoshiro256& rng,
                                       const std::vector<seq::BaseCode>& src, double p) {
  std::vector<seq::BaseCode> out;
  for (seq::BaseCode b : mutate(rng, src, p)) {
    if (rng.bernoulli(p)) continue;  // deletion
    out.push_back(b);
    if (rng.bernoulli(p)) out.push_back(static_cast<seq::BaseCode>(rng.below(4)));
  }
  return out.empty() ? src : out;
}

/// Mixed lengths and shapes, per-pair bands drawn from {0, 1, 8}.
seq::PairBatch mixed_pairs(std::uint64_t seed, std::size_t count) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  const std::size_t bands[] = {0, 1, 8};
  for (std::size_t p = 0; p < count; ++p) {
    const std::size_t rlen = 1 + rng.below(260);
    std::vector<seq::BaseCode> ref = random_seq(rng, rlen);
    std::vector<seq::BaseCode> query;
    switch (rng.below(4)) {
      case 0:  // a related slice with indels
        query.assign(ref.begin() + static_cast<std::ptrdiff_t>(rng.below(rlen / 4 + 1)),
                     ref.end());
        query = with_indels(rng, query, 0.04);
        break;
      case 1:  // unrelated, N-sprinkled
        query = random_seq_with_n(rng, 1 + rng.below(260), 0.1);
        break;
      case 2: {  // related, with an N run in each sequence
        query = with_indels(rng, ref, 0.02);
        const std::size_t run = 1 + rng.below(12);
        for (auto* seq : {&query, &ref}) {
          const std::size_t len = std::min(run, seq->size() / 2);
          const std::size_t at = rng.below(seq->size() - len + 1);
          std::fill_n(seq->begin() + static_cast<std::ptrdiff_t>(at), len, seq::kBaseN);
        }
        break;
      }
      default:  // tiny
        query = random_seq(rng, 1 + rng.below(8));
        break;
    }
    batch.add(std::move(query), std::move(ref), bands[rng.below(3)]);
  }
  return batch;
}

/// In-band cells of pair p's endpoint rectangle: what the cohort engine
/// counts for it.
std::size_t rectangle_cells(const seq::PairBatch& batch, std::size_t p,
                            const AlignmentResult& end) {
  const auto n = static_cast<std::int64_t>(batch.refs[p].size());
  const auto m = static_cast<std::int64_t>(batch.queries[p].size());
  const std::int64_t band = batch.band_of(p) != 0 ? static_cast<std::int64_t>(batch.band_of(p))
                                                  : std::max(n, m);
  std::size_t cells = 0;
  for (std::int64_t i = 0; i <= end.ref_end; ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i - band);
    const std::int64_t hi = std::min<std::int64_t>(end.query_end, i + band);
    cells += static_cast<std::size_t>(hi - lo + 1);
  }
  return cells;
}

/// Which engine traced each pair, read off its stats.
struct Routing {
  std::size_t cohort = 0;  ///< cohort engine: no replay, rectangle cells
  std::size_t scalar = 0;  ///< banded_traceback: its own stats
};

/// Runs the score pass and the cohort engine, and checks every pair against
/// banded_traceback (and, without z-drop, the full-matrix masked oracle).
Routing expect_matches_oracles(const seq::PairBatch& batch, const ScoringScheme& s, Score zdrop,
                               const std::string& what, bool full_matrix = true) {
  const std::vector<AlignmentResult> ends = simd::align_batch(batch, s, nullptr, 0, zdrop);
  const std::vector<TracebackResult> got = simd::traceback_batch(batch, ends, s, zdrop);
  EXPECT_EQ(got.size(), batch.size()) << what;
  Routing routing;
  for (std::size_t p = 0; p < batch.size() && p < got.size(); ++p) {
    TracebackParams params;
    params.band = batch.band_of(p);
    params.zdrop = zdrop;
    const TracebackResult want =
        banded_traceback(batch.refs[p], batch.queries[p], s, params);
    EXPECT_EQ(got[p].traced, want.traced) << what << " pair " << p;
    EXPECT_EQ(got[p].traced.end, ends[p]) << what << " pair " << p;
    if (zdrop <= 0 && full_matrix) {
      EXPECT_EQ(got[p].traced,
                smith_waterman_traceback(batch.refs[p], batch.queries[p], s, batch.band_of(p)))
          << what << " pair " << p;
    }
    if (ends[p].score <= 0) {
      EXPECT_EQ(got[p].stats.cells(), 0u) << what << " pair " << p;
    } else if (got[p].stats.replay_cells == 0) {
      ++routing.cohort;
      EXPECT_EQ(got[p].stats.forward_cells, rectangle_cells(batch, p, ends[p]))
          << what << " pair " << p;
    } else {
      ++routing.scalar;
      EXPECT_EQ(got[p].stats.forward_cells, want.stats.forward_cells) << what << " pair " << p;
      EXPECT_EQ(got[p].stats.replay_cells, want.stats.replay_cells) << what << " pair " << p;
    }
  }
  return routing;
}

TEST(SimdTraceback, PartialCohortsMatchOracles) {
  for (std::size_t size : {1, 15, 17, 33}) {
    const seq::PairBatch batch = mixed_pairs(4100 + size, size);
    const Routing routing =
        expect_matches_oracles(batch, ScoringScheme{}, 0, "size " + std::to_string(size));
    EXPECT_GT(routing.cohort, 0u) << size;
    EXPECT_EQ(routing.scalar, 0u) << size;
  }
}

TEST(SimdTraceback, NonDefaultScoringMatchesOracles) {
  util::Xoshiro256 rng(4200);
  for (int trial = 0; trial < 8; ++trial) {
    ScoringScheme s;
    s.match = 1 + static_cast<Score>(rng.below(3));
    s.mismatch = static_cast<Score>(rng.below(6));
    s.gap_open = static_cast<Score>(rng.below(8));
    s.gap_extend = 1 + static_cast<Score>(rng.below(3));
    expect_matches_oracles(mixed_pairs(4300 + static_cast<std::uint64_t>(trial), 33), s, 0,
                           "scoring trial " + std::to_string(trial));
  }
}

TEST(SimdTraceback, ZdroppedEndpointsMatchBandedTraceback) {
  // Queries share a head with their reference and end in an unrelated
  // tail; the reference runs on past the head. Z-drop stops the score pass
  // in the unrelated rows, and the traced rectangle ends at its endpoint.
  util::Xoshiro256 rng(4400);
  seq::PairBatch batch;
  const std::size_t bands[] = {0, 1, 8};
  for (std::size_t p = 0; p < 40; ++p) {
    const std::size_t head = 20 + rng.below(120);
    std::vector<seq::BaseCode> ref = random_seq(rng, head + 40 + rng.below(100));
    std::vector<seq::BaseCode> query(ref.begin(),
                                     ref.begin() + static_cast<std::ptrdiff_t>(head));
    query = with_indels(rng, query, 0.03);
    const std::vector<seq::BaseCode> tail = random_seq(rng, 30 + rng.below(60));
    query.insert(query.end(), tail.begin(), tail.end());
    batch.add(std::move(query), std::move(ref), bands[p % 3]);
  }
  std::size_t dropped = 0;
  for (Score zdrop : {5, 12, 30}) {
    expect_matches_oracles(batch, ScoringScheme{}, zdrop, "zdrop " + std::to_string(zdrop));
    for (std::size_t p = 0; p < batch.size(); ++p) {
      TracebackParams params;
      params.band = batch.band_of(p);
      params.zdrop = zdrop;
      dropped += banded_traceback(batch.refs[p], batch.queries[p], ScoringScheme{}, params)
                     .stats.zdropped;
    }
  }
  EXPECT_GT(dropped, 0u) << "the workload never exercised z-drop";
}

TEST(SimdTraceback, ZeroScorePairsStayEmpty) {
  seq::PairBatch batch;
  batch.add(std::vector<seq::BaseCode>(20, 0), std::vector<seq::BaseCode>(30, 1));
  batch.add({0, 1, 2, 3, 0, 1}, {0, 1, 2, 3, 0, 1});
  batch.add(std::vector<seq::BaseCode>(12, seq::kBaseN),
            std::vector<seq::BaseCode>(12, seq::kBaseN));
  batch.add(std::vector<seq::BaseCode>(9, 2), std::vector<seq::BaseCode>(9, 3), 1);
  const std::vector<AlignmentResult> ends = simd::align_batch(batch, ScoringScheme{});
  ASSERT_EQ(ends[0].score, 0);
  ASSERT_GT(ends[1].score, 0);
  ASSERT_EQ(ends[2].score, 0);
  ASSERT_EQ(ends[3].score, 0);
  const auto got = simd::traceback_batch(batch, ends, ScoringScheme{});
  for (std::size_t p : {0, 2, 3}) {
    EXPECT_EQ(got[p].traced, TracedAlignment{}) << p;
    EXPECT_EQ(got[p].stats.cells(), 0u) << p;
    EXPECT_EQ(got[p].stats.traffic_bytes, 0u) << p;
  }
  EXPECT_EQ(got[1].traced.cigar, "6M");
  EXPECT_EQ(got[1].stats.forward_cells, 36u);
  EXPECT_EQ(got[1].stats.replay_cells, 0u);
  expect_matches_oracles(batch, ScoringScheme{}, 0, "zero scores");
}

TEST(SimdTraceback, OversizedAndSaturatingPairsFallBack) {
  util::Xoshiro256 rng(4500);
  seq::PairBatch batch;
  // Over the code cap: a 700 x 700 full-table rectangle is 7.8 MB of codes
  // at 16 lanes.
  std::vector<seq::BaseCode> big = random_seq(rng, 700);
  batch.add(with_indels(rng, big, 0.01), big);
  // Long but banded: its in-band cells fit the cap, so it stays on the
  // cohort path.
  std::vector<seq::BaseCode> banded = random_seq(rng, 2000);
  batch.add(mutate(rng, banded, 0.02), banded, 8);
  // At the 16-bit score ceiling: 22,000 matches at +3 is 66,000.
  std::vector<seq::BaseCode> high = random_seq(rng, 22000);
  batch.add(high, high, 1);
  // Longer than the 16-bit position guard.
  std::vector<seq::BaseCode> longest = random_seq(rng, simd::detail::kMaxSimdLen + 1);
  batch.add(longest, longest, 1);
  for (std::size_t p = 0; p < 3; ++p) {
    std::vector<seq::BaseCode> ref = random_seq(rng, 60);
    batch.add(mutate(rng, ref, 0.05), ref);
  }

  ScoringScheme s;
  s.match = 3;
  const Routing routing =
      expect_matches_oracles(batch, s, 0, "fallbacks", /*full_matrix=*/false);
  EXPECT_EQ(routing.scalar, 3u);
  EXPECT_EQ(routing.cohort, 4u);
}

TEST(SimdTraceback, CellsAreEachPairsEndpointRectangle) {
  const seq::PairBatch batch = mixed_pairs(4600, 45);
  const ScoringScheme s;
  const std::vector<AlignmentResult> ends = simd::align_batch(batch, s);
  // The same pairs in reverse order land in other cohorts with other lanes.
  seq::PairBatch reversed;
  std::vector<AlignmentResult> reversed_ends;
  for (std::size_t k = batch.size(); k-- > 0;) {
    reversed.add(batch.queries[k], batch.refs[k], batch.band_of(k));
    reversed_ends.push_back(ends[k]);
  }
  const auto got = simd::traceback_batch(batch, ends, s, 0, /*threads=*/1);
  const auto again = simd::traceback_batch(reversed, reversed_ends, s, 0, /*threads=*/3);
  for (std::size_t p = 0; p < batch.size(); ++p) {
    const std::size_t want = ends[p].score > 0 ? rectangle_cells(batch, p, ends[p]) : 0;
    EXPECT_EQ(got[p].stats.cells(), want) << p;
    EXPECT_EQ(again[batch.size() - 1 - p].stats.cells(), want) << p;
    EXPECT_EQ(again[batch.size() - 1 - p].traced, got[p].traced) << p;
  }
}

TEST(SimdTraceback, GenericAndAvx2KernelsAgree) {
  // Cohorts packed in input order (not the engine's sorted order), run
  // through each ISA's entry point directly.
  const seq::PairBatch batch = mixed_pairs(4700, 40);
  const ScoringScheme s;
  const std::vector<AlignmentResult> ends = simd::align_batch(batch, s);
  std::vector<std::size_t> pairs;
  for (std::size_t p = 0; p < batch.size(); ++p) {
    if (ends[p].score > 0) pairs.push_back(p);
  }
  std::vector<std::size_t> cohort_begin;
  for (std::size_t k = 0; k < pairs.size(); k += simd::detail::kTraceLanes) {
    cohort_begin.push_back(k);
  }
  cohort_begin.push_back(pairs.size());

  auto run = [&](void (*pass)(const simd::detail::TracePassRequest&)) {
    std::vector<TracebackResult> results(batch.size());
    simd::detail::TracePassRequest req;
    req.batch = &batch;
    req.scoring = &s;
    req.ends = ends;
    req.pairs = pairs;
    req.cohort_begin = cohort_begin;
    req.results = &results;
    pass(req);
    return results;
  };
  const auto generic = run(&simd::detail::run_trace_pass_generic);
  for (std::size_t p : pairs) {
    TracebackParams params;
    params.band = batch.band_of(p);
    EXPECT_EQ(generic[p].traced,
              banded_traceback(batch.refs[p], batch.queries[p], s, params).traced)
        << p;
    EXPECT_EQ(generic[p].stats.cells(), rectangle_cells(batch, p, ends[p])) << p;
  }
#if defined(SALOBA_SIMD_AVX2)
  if (simd::cpu_supports_avx2()) {
    const auto avx2 = run(&simd::detail::run_trace_pass_avx2);
    for (std::size_t p : pairs) {
      EXPECT_EQ(avx2[p].traced, generic[p].traced) << p;
      EXPECT_EQ(avx2[p].stats.cells(), generic[p].stats.cells()) << p;
      EXPECT_EQ(avx2[p].stats.traffic_bytes, generic[p].stats.traffic_bytes) << p;
    }
    return;
  }
#endif
  GTEST_SKIP() << "no AVX2 kernels to compare on this build or host";
}

}  // namespace
}  // namespace saloba::align
