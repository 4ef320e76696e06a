// HostBackend lanes run the SIMD batch engine: bit-identical parity with
// the scalar oracle (align::align_batch, align::banded_traceback) on the
// score pass, banded/z-drop runs and the traceback phase, and make_backend's
// host branch (cpu_lanes identical lanes whatever the device string).
// `ctest -L simd`.
#include "core/backend.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../support/test_support.hpp"
#include "align/batch.hpp"
#include "align/traceback_engine.hpp"
#include "core/aligner.hpp"

namespace saloba::core {
namespace {

TEST(HostBackend, RunMatchesScalarOracle) {
  auto batch = saloba::testing::imbalanced_batch(801, 40, 5, 300);
  HostBackend simd{align::ScoringScheme{}, 1};
  EXPECT_EQ(simd.lanes(), 1);
  EXPECT_EQ(simd.name(), "simd");
  align::BatchTiming want;
  const auto want_results = align::align_batch(batch, align::ScoringScheme{}, &want);
  auto got = simd.run(batch, 0);
  EXPECT_EQ(got.results, want_results);
  EXPECT_EQ(got.cells, want.cells);
  EXPECT_FALSE(got.kernel_stats.has_value());
}

TEST(HostBackend, BandedZdropRunMatchesScalarOracle) {
  auto batch = saloba::testing::related_batch(802, 30, 100, 140);
  batch.default_band = 16;
  HostBackend simd{align::ScoringScheme{}, 1, 0, /*zdrop=*/20};
  align::BatchTiming want;
  const auto want_results =
      align::align_batch(batch, align::ScoringScheme{}, &want, 0, /*zdrop=*/20);
  auto got = simd.run(batch, 0);
  EXPECT_EQ(got.results, want_results);
  EXPECT_EQ(got.cells, want.cells);
}

// The phase counts each cohort-traced pair's own endpoint rectangle, rows
// [0, ref_end] x columns [0, query_end] (all of it in band here: the batch is
// full-table), whatever lanes or threads it shared.
TEST(HostBackend, TracebackPhaseMatchesScalarOracle) {
  auto batch = saloba::testing::related_batch(803, 20, 90, 130);
  for (int threads : {1, 3}) {
    HostBackend simd{align::ScoringScheme{}, 1, threads};
    auto score = simd.run(batch, 0);
    auto got = simd.run_traceback(batch, score.results, 0);
    ASSERT_EQ(got.traced.size(), batch.size());
    std::size_t cells = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (score.results[i].score <= 0) {
        EXPECT_EQ(got.traced[i], align::TracedAlignment{}) << "pair " << i;
        continue;
      }
      auto want =
          align::banded_traceback(batch.refs[i], batch.queries[i], align::ScoringScheme{});
      EXPECT_EQ(got.traced[i], want.traced) << "pair " << i;
      EXPECT_EQ(got.traced[i].end, score.results[i]) << "pair " << i;
      cells += static_cast<std::size_t>(score.results[i].ref_end + 1) *
               static_cast<std::size_t>(score.results[i].query_end + 1);
    }
    EXPECT_EQ(got.cells, cells) << threads << " threads";
    // A cohort of its own traces a pair with the same cells.
    seq::PairBatch first;
    first.add(batch.queries[0], batch.refs[0]);
    EXPECT_EQ(simd.run_traceback(first, std::span(score.results).first(1), 0).cells,
              static_cast<std::size_t>(score.results[0].ref_end + 1) *
                  static_cast<std::size_t>(score.results[0].query_end + 1));
  }
}

TEST(MakeBackend, HostBranchBuildsCpuLanesWhateverTheDevice) {
  AlignerOptions opts;  // Backend::kCpu, device "rtx3090"
  for (const char* device : {"rtx3090", "simd", "cpu", "simd,cpu", "gtx1650,rtx3090"}) {
    opts.device = device;
    for (int lanes : {1, 3}) {
      opts.cpu_lanes = lanes;
      auto backend = make_backend(opts);
      EXPECT_EQ(backend->name(), "simd") << device;
      EXPECT_EQ(backend->lanes(), lanes) << device;
      EXPECT_EQ(lane_weights(*backend), std::vector<double>(static_cast<std::size_t>(lanes), 1.0))
          << device;
    }
    // No host backend accepts fewer than one lane.
    opts.cpu_lanes = 0;
    EXPECT_THROW(make_backend(opts), std::invalid_argument) << device;
  }
}

TEST(SimdAligner, EndToEndMatchesScalarOracle) {
  auto batch = saloba::testing::imbalanced_batch(804, 60, 10, 250);
  align::BatchTiming want;
  const auto want_results = align::align_batch(batch, align::ScoringScheme{}, &want);
  auto got = Aligner(AlignerOptions{}).align(batch);
  EXPECT_EQ(got.results, want_results);
  EXPECT_EQ(got.cells, want.cells);
}

TEST(SimdAligner, BandedTracebackMatchesScalarOracle) {
  auto batch = saloba::testing::related_batch(805, 25, 110, 150);
  AlignerOptions opts;
  opts.band = 24;
  opts.zdrop = 60;
  opts.traceback = true;
  auto got = Aligner(opts).align(batch);

  const align::ScoringScheme scoring;
  seq::PairBatch banded = batch;
  materialize_bands(banded, opts.band_policy());
  EXPECT_EQ(got.results, align::align_batch(banded, scoring, nullptr, 0, opts.zdrop));
  ASSERT_EQ(got.traced.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (got.results[i].score <= 0) continue;
    align::TracebackParams params;
    params.band = banded.band_of(i);
    params.zdrop = opts.zdrop;
    auto want = align::banded_traceback(batch.refs[i], batch.queries[i], scoring, params);
    EXPECT_EQ(got.traced[i], want.traced) << "pair " << i;
  }
}

}  // namespace
}  // namespace saloba::core
