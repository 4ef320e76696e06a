#include "align/simd_engine.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "align/simd_kernel.hpp"
#include "align/simd_vec.hpp"
#include "align/sw_banded.hpp"
#include "align/sw_striped.hpp"
#include "align/traceback_engine.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace saloba::align::simd {

namespace detail {

void run_pass_u8_generic(const PassRequest& req) { run_pass<OpsU8Generic>(req); }
void run_pass_u16_generic(const PassRequest& req) { run_pass<OpsU16Generic>(req); }
void run_trace_pass_generic(const TracePassRequest& req) {
  run_trace_pass<OpsU16Generic>(req);
}

}  // namespace detail

bool compiled_with_avx2() {
#if defined(SALOBA_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

bool cpu_supports_avx2() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const char* isa_name() {
  return compiled_with_avx2() && cpu_supports_avx2() ? "avx2" : "generic";
}

namespace {

using detail::PassRequest;

/// int32 scalar settlement for one pair: the striped engine when the pair is
/// unbanded and un-pruned (plain Smith–Waterman, full-table cell count), the
/// banded oracle otherwise — exactly the two paths align::align_batch takes.
void settle_scalar(const seq::PairBatch& batch, const ScoringScheme& scoring, Score zdrop,
                   std::size_t p, AlignmentResult& result, std::size_t& cell_count) {
  const auto& ref = batch.refs[p];
  const auto& query = batch.queries[p];
  const std::size_t band = batch.band_of(p);
  if (band == 0 && zdrop <= 0) {
    result = smith_waterman_striped_ends(ref, query, scoring);
    cell_count = ref.size() * query.size();
    return;
  }
  const BandedResult br = smith_waterman_banded(ref, query, scoring, BandedParams{band, zdrop});
  result = br.result;
  cell_count = br.cells_computed;
}

}  // namespace

std::vector<AlignmentResult> align_batch(const seq::PairBatch& batch,
                                         const ScoringScheme& scoring, EngineStats* stats,
                                         int threads, Score zdrop) {
  SALOBA_CHECK(scoring.valid());
  const util::Timer timer;
  const std::size_t n_pairs = batch.size();
  std::vector<AlignmentResult> results(n_pairs);
  std::vector<std::size_t> cells(n_pairs, 0);
  std::vector<std::uint8_t> overflowed(n_pairs, 0);

  const bool use_avx2 = compiled_with_avx2() && cpu_supports_avx2();
  EngineStats local;
  local.pairs = n_pairs;
  local.avx2 = use_avx2;

  // Route: empty pairs settle immediately (score 0, no cells); pairs beyond
  // the 16-bit index guard go straight to int32; everything else enters the
  // 8-bit pass. Vector pairs are sorted longest-first so cohort rectangles
  // stay tight (lanes in a cohort share the padded row/column extent).
  std::vector<std::size_t> vec_pairs, scalar_pairs;
  vec_pairs.reserve(n_pairs);
  for (std::size_t p = 0; p < n_pairs; ++p) {
    const std::size_t n = batch.refs[p].size();
    const std::size_t m = batch.queries[p].size();
    if (n == 0 || m == 0) continue;  // results[p] stays the empty alignment
    if (std::max(n, m) > detail::kMaxSimdLen) {
      scalar_pairs.push_back(p);
    } else {
      vec_pairs.push_back(p);
    }
  }
  std::stable_sort(vec_pairs.begin(), vec_pairs.end(), [&](std::size_t a, std::size_t b) {
    if (batch.refs[a].size() != batch.refs[b].size()) {
      return batch.refs[a].size() > batch.refs[b].size();
    }
    return batch.queries[a].size() > batch.queries[b].size();
  });
  local.rescued_32bit = scalar_pairs.size();

  PassRequest req;
  req.batch = &batch;
  req.scoring = &scoring;
  req.zdrop = zdrop;
  req.results = &results;
  req.cells = &cells;
  req.overflowed = &overflowed;
  req.threads = threads;

  // 8-bit pass.
  if (!vec_pairs.empty()) {
    req.pairs = vec_pairs;
    local.cohorts += (vec_pairs.size() + 31) / 32;
#if defined(SALOBA_SIMD_AVX2)
    if (use_avx2) {
      detail::run_pass_u8_avx2(req);
    } else {
      detail::run_pass_u8_generic(req);
    }
#else
    detail::run_pass_u8_generic(req);
#endif
  }

  // 16-bit rescue of saturated lanes (filtering preserves sorted order).
  std::vector<std::size_t> wide_pairs;
  for (std::size_t p : vec_pairs) {
    if (overflowed[p]) wide_pairs.push_back(p);
  }
  local.pairs_8bit = vec_pairs.size() - wide_pairs.size();
  if (!wide_pairs.empty()) {
    std::fill(overflowed.begin(), overflowed.end(), std::uint8_t{0});
    req.pairs = wide_pairs;
    local.cohorts += (wide_pairs.size() + 15) / 16;
#if defined(SALOBA_SIMD_AVX2)
    if (use_avx2) {
      detail::run_pass_u16_avx2(req);
    } else {
      detail::run_pass_u16_generic(req);
    }
#else
    detail::run_pass_u16_generic(req);
#endif
    for (std::size_t p : wide_pairs) {
      if (overflowed[p]) scalar_pairs.push_back(p);
    }
    local.rescued_16bit = wide_pairs.size() - (scalar_pairs.size() - local.rescued_32bit);
  }
  local.rescued_32bit = scalar_pairs.size();

  // int32 scalar settlement (oversize pairs + double-saturated rescues).
  if (!scalar_pairs.empty()) {
    util::parallel_for_indexed(
        scalar_pairs.size(),
        [&](std::size_t k) {
          const std::size_t p = scalar_pairs[k];
          settle_scalar(batch, scoring, zdrop, p, results[p], cells[p]);
        },
        threads);
  }

  if (stats != nullptr) {
    local.cells = std::accumulate(cells.begin(), cells.end(), std::size_t{0});
    local.wall_ms = timer.millis();
    *stats = local;
  }
  return results;
}

std::vector<TracebackResult> traceback_batch(const seq::PairBatch& batch,
                                             std::span<const AlignmentResult> ends,
                                             const ScoringScheme& scoring, Score zdrop,
                                             int threads) {
  SALOBA_CHECK(scoring.valid());
  SALOBA_CHECK_MSG(ends.size() == batch.size(), "traceback got " << ends.size()
                                                    << " score results for a " << batch.size()
                                                    << "-pair batch");
  std::vector<TracebackResult> results(batch.size());

  // Route: a zero score is the empty alignment and needs no trace; pairs
  // too long for 16-bit positions, scoring at the 16-bit ceiling, or whose
  // code rectangle alone would overflow a cohort buffer take the scalar
  // engine; the rest are traced in cohorts.
  std::vector<std::size_t> cohort_pairs, scalar_pairs;
  std::vector<detail::TraceLane> lanes(batch.size());
  for (std::size_t p = 0; p < batch.size(); ++p) {
    if (ends[p].score <= 0) continue;
    const std::size_t len = std::max(batch.refs[p].size(), batch.queries[p].size());
    if (len > detail::kMaxSimdLen || ends[p].score >= OpsU16Generic::kSatMax) {
      scalar_pairs.push_back(p);
      continue;
    }
    lanes[p] = detail::trace_lane(batch, p, ends[p]);
    if (lanes[p].cells() * detail::kTraceLanes > detail::kTraceCodeBytes) {
      scalar_pairs.push_back(p);
    } else {
      cohort_pairs.push_back(p);
    }
  }

  // Cohorts: tallest rectangles first so lanes sharing a cohort have similar
  // extents, closing a cohort when it is full or its code hull would pass
  // the cap.
  std::stable_sort(cohort_pairs.begin(), cohort_pairs.end(), [&](std::size_t a, std::size_t b) {
    if (lanes[a].rows != lanes[b].rows) return lanes[a].rows > lanes[b].rows;
    return lanes[a].cols > lanes[b].cols;
  });
  std::vector<std::size_t> cohort_begin{0};
  detail::CodeRows hull;
  for (std::size_t k = 0; k < cohort_pairs.size(); ++k) {
    const detail::TraceLane& lane = lanes[cohort_pairs[k]];
    detail::CodeRows grown = hull;
    grown.add(lane);
    if (k - cohort_begin.back() == detail::kTraceLanes ||
        grown.columns * detail::kTraceLanes > detail::kTraceCodeBytes) {
      cohort_begin.push_back(k);
      grown = {};
      grown.add(lane);
    }
    hull = std::move(grown);
  }
  cohort_begin.push_back(cohort_pairs.size());

  if (!cohort_pairs.empty()) {
    detail::TracePassRequest req;
    req.batch = &batch;
    req.scoring = &scoring;
    req.ends = ends;
    req.pairs = cohort_pairs;
    req.cohort_begin = cohort_begin;
    req.results = &results;
    req.threads = threads;
#if defined(SALOBA_SIMD_AVX2)
    if (cpu_supports_avx2()) {
      detail::run_trace_pass_avx2(req);
    } else {
      detail::run_trace_pass_generic(req);
    }
#else
    detail::run_trace_pass_generic(req);
#endif
  }

  util::parallel_for_indexed(
      scalar_pairs.size(),
      [&](std::size_t k) {
        const std::size_t p = scalar_pairs[k];
        TracebackParams params;
        params.band = batch.band_of(p);
        params.zdrop = zdrop;
        results[p] = banded_traceback(batch.refs[p], batch.queries[p], scoring, params);
      },
      threads);
  return results;
}

}  // namespace saloba::align::simd
