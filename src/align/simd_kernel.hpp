// Internal header of the inter-sequence SIMD extension engine: the banded,
// z-drop-aware Smith–Waterman cohort kernel and its traced twin, written
// once against the Ops vocabulary of simd_vec.hpp and instantiated per ISA
// (simd_engine.cpp: generic fallback; simd_engine_avx2.cpp: AVX2).
//
// Layout (AnySeq/GPU-style inter-task parallelism on the host): one vector
// lane = one independent (query, reference) pair. A cohort of Ops::kLanes
// pairs — pre-sorted by length so the padded rectangle stays tight — walks
// reference rows in lockstep; every lane applies its own band window
// |i - j| <= band via per-cell masks, so banded pairs prune bit-identically
// to align::smith_waterman_banded:
//
//   * in-band H values are exact (cells outside a lane's window are forced
//     to H = 0 after computation, which is precisely the out-of-band read
//     semantics of the scalar oracle; E/F clamp to 0 in the saturating
//     domain, equivalent to the oracle's -inf because the zero floor of H
//     dominates any non-positive gap chain),
//   * the global best is tracked with the canonical row-major tie-break
//     (smallest ref_end, then smallest query_end — align::improves),
//   * z-drop terminates a lane's row sweep under exactly the oracle's
//     condition, and
//   * a lane whose score saturates (kSatMax) is evicted for the wider pass
//     — saturation can only surface as a stored in-band kSatMax, so the
//     per-row detection is exact, never silent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "align/traceback_engine.hpp"
#include "seq/sequence.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace saloba::align::simd::detail {

/// Pairs longer than this on either side skip the narrow passes entirely:
/// endpoint bookkeeping lives in 16-bit index lanes, and a guard well below
/// 65535 keeps every index comparison unsigned-exact.
inline constexpr std::size_t kMaxSimdLen = 32000;

/// Pair p's band in a lane. Band 0 = full table: a band covering the
/// longer side reproduces the plain algorithm exactly (the oracle's own
/// convention).
inline std::int64_t lane_band(const seq::PairBatch& batch, std::size_t p) {
  const std::size_t b = batch.band_of(p);
  return b != 0 ? static_cast<std::int64_t>(std::min(b, 2 * kMaxSimdLen))
                : static_cast<std::int64_t>(std::max(batch.refs[p].size(),
                                                     batch.queries[p].size()));
}

/// Allocator of 32-byte-aligned storage, so lane buffers of Elem can be
/// read with Ops::load.
template <class T>
struct VectorAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{32};
  VectorAllocator() = default;
  template <class U>
  VectorAllocator(const VectorAllocator<U>&) {}
  T* allocate(std::size_t n) { return static_cast<T*>(::operator new(n * sizeof(T), kAlign)); }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }
  bool operator==(const VectorAllocator&) const = default;
};

/// kLanes lanes per vector slot, slot k at data() + k * kLanes.
template <class Elem>
using LaneBuffer = std::vector<Elem, VectorAllocator<Elem>>;

/// SoA transposed bases of one cohort: out[i * kLanes + l] is base i of
/// lane l's sequence (seqs[lane_pairs[l]]) for i < lens[l]. Pad 0xF0 never
/// equals a real code or itself across a real lane, and every padded cell
/// is out of every lane's window anyway.
template <int kLanes>
std::vector<std::uint8_t> transpose_bases(const std::vector<std::vector<seq::BaseCode>>& seqs,
                                          std::span<const std::size_t> lane_pairs,
                                          const std::int64_t* lens, std::int64_t max_len) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(max_len) * kLanes, 0xF0);
  for (std::size_t l = 0; l < lane_pairs.size(); ++l) {
    const std::vector<seq::BaseCode>& src = seqs[lane_pairs[l]];
    for (std::size_t i = 0; i < static_cast<std::size_t>(lens[l]); ++i) {
      out[i * kLanes + l] = src[i];
    }
  }
  return out;
}

/// The scoring scheme splatted into lanes, clamped to the lane range.
template <class Ops>
struct ScoreVecs {
  using Vec = typename Ops::Vec;
  using Elem = typename Ops::Elem;

  static Elem clamp(Score s) { return static_cast<Elem>(std::min<Score>(s, Ops::kSatMax)); }

  explicit ScoreVecs(const ScoringScheme& scoring)
      : alpha(Ops::splat(clamp(scoring.alpha()))),
        beta(Ops::splat(clamp(scoring.beta()))),
        match(Ops::splat(clamp(scoring.match))),
        mismatch(Ops::splat(clamp(scoring.mismatch))),
        n_code(Ops::splat(static_cast<Elem>(seq::kBaseN))) {}

  /// H(i-1, j-1) + S(i, j) from the diagonal carry, saturating; N never
  /// matches (`ref_is_n` is the row's cmpeq(ref, N)).
  Vec diagonal(Vec carry, Vec ref, Vec ref_is_n, Vec query) const {
    const Vec is_match =
        Ops::andnot(Ops::vor(Ops::cmpeq(query, n_code), ref_is_n), Ops::cmpeq(ref, query));
    return Ops::blend(is_match, Ops::adds(carry, match), Ops::subs(carry, mismatch));
  }

  Vec alpha, beta, match, mismatch, n_code;
};

/// One widening pass over a set of pairs. `pairs` must arrive pre-sorted
/// into cohort order (the engine sorts by length once); slots of `results`
/// and `cells` are written only for pairs the pass settles, and pairs whose
/// scores saturate are flagged in `overflowed` for the next-wider pass.
struct PassRequest {
  const seq::PairBatch* batch = nullptr;
  const ScoringScheme* scoring = nullptr;
  Score zdrop = 0;
  std::span<const std::size_t> pairs;
  std::vector<AlignmentResult>* results = nullptr;
  std::vector<std::size_t>* cells = nullptr;
  std::vector<std::uint8_t>* overflowed = nullptr;
  int threads = 0;
};

// ISA entry points (one per lane width). The generic pair is always
// compiled; the AVX2 pair exists only when the build enables it and is only
// called after a runtime CPUID check.
void run_pass_u8_generic(const PassRequest& req);
void run_pass_u16_generic(const PassRequest& req);
#if defined(SALOBA_SIMD_AVX2)
void run_pass_u8_avx2(const PassRequest& req);
void run_pass_u16_avx2(const PassRequest& req);
#endif

/// The traced pass's lane width (16-bit lanes: an endpoint score below
/// 65535 bounds every H the pass computes) and the cap on one cohort's code
/// buffer, which each thread allocates once and reuses.
inline constexpr int kTraceLanes = 16;
inline constexpr std::size_t kTraceCodeBytes = std::size_t{2} << 20;

/// A traced pair's clipped rectangle — rows [0, rows) x columns [0, cols),
/// its score-pass endpoint's — and its band window per row.
struct TraceLane {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t band = 0;

  std::int64_t lo(std::int64_t i) const { return i > band ? i - band : 0; }
  std::int64_t hi(std::int64_t i) const { return std::min(cols - 1, i + band); }
  /// In-band cells of the rectangle (the endpoint is in band, so no row is
  /// empty).
  std::size_t cells() const {
    std::size_t total = 0;
    for (std::int64_t i = 0; i < rows; ++i) total += static_cast<std::size_t>(hi(i) - lo(i) + 1);
    return total;
  }
};

/// Pair p's traced lane; the endpoint must be an in-band cell of the pair.
inline TraceLane trace_lane(const seq::PairBatch& batch, std::size_t p,
                            const AlignmentResult& end) {
  const auto n = static_cast<std::int64_t>(batch.refs[p].size());
  const auto m = static_cast<std::int64_t>(batch.queries[p].size());
  const TraceLane lane{end.ref_end + std::int64_t{1}, end.query_end + std::int64_t{1},
                       lane_band(batch, p)};
  SALOBA_CHECK_MSG(lane.rows >= 1 && lane.rows <= n && lane.cols >= 1 && lane.cols <= m &&
                       std::abs(lane.rows - lane.cols) <= lane.band,
                   "pair " << p << ": score-pass endpoint (" << end.ref_end << ", "
                           << end.query_end << ") is not an in-band cell");
  return lane;
}

/// Per-row column hull of a cohort's lane windows: the columns the traced
/// sweep visits and stores codes for, kTraceLanes bytes per column.
struct CodeRows {
  std::vector<std::int64_t> lo, hi;
  std::size_t columns = 0;  ///< sum of the row widths

  void add(const TraceLane& lane) {
    const auto rows = static_cast<std::size_t>(lane.rows);
    if (rows > lo.size()) {
      lo.resize(rows, lane.cols);
      hi.resize(rows, -1);
    }
    columns = 0;
    for (std::size_t r = 0; r < lo.size(); ++r) {
      if (r < rows) {
        lo[r] = std::min(lo[r], lane.lo(static_cast<std::int64_t>(r)));
        hi[r] = std::max(hi[r], lane.hi(static_cast<std::int64_t>(r)));
      }
      columns += static_cast<std::size_t>(hi[r] - lo[r] + 1);
    }
  }
};

/// One traced pass: cohorts of pairs with positive score-pass endpoints,
/// each traced over its lanes' endpoint rectangles. Writes results[p] for
/// every pair it traces.
struct TracePassRequest {
  const seq::PairBatch* batch = nullptr;
  const ScoringScheme* scoring = nullptr;
  std::span<const AlignmentResult> ends;  ///< score-pass endpoints, by batch pair
  std::span<const std::size_t> pairs;     ///< in cohort order
  /// Cohort c is pairs[cohort_begin[c], cohort_begin[c + 1]), at most
  /// kTraceLanes pairs whose CodeRows hold at most kTraceCodeBytes.
  std::span<const std::size_t> cohort_begin;
  std::vector<TracebackResult>* results = nullptr;
  int threads = 0;
};

void run_trace_pass_generic(const TracePassRequest& req);
#if defined(SALOBA_SIMD_AVX2)
void run_trace_pass_avx2(const TracePassRequest& req);
#endif

template <class Ops>
class CohortKernel {
 public:
  static constexpr int kW = Ops::kLanes;
  static constexpr int kKH = Ops::kIdxHalves;
  static constexpr int kIW = kW / kKH;

  /// Runs one cohort of up to kW pairs (batch indices in `lane_pairs`).
  static void run_cohort(const PassRequest& req, std::span<const std::size_t> lane_pairs) {
    using Vec = typename Ops::Vec;
    using IVec = typename Ops::IVec;
    using Elem = typename Ops::Elem;

    const seq::PairBatch& batch = *req.batch;
    const int lanes_used = static_cast<int>(lane_pairs.size());

    // --- per-lane scalar bookkeeping -----------------------------------
    std::int64_t n[kW] = {}, m[kW] = {}, band[kW] = {}, last_row[kW] = {};
    bool alive[kW] = {};
    std::size_t cells_acc[kW] = {};
    std::int64_t max_n = 0, max_m = 0;
    for (int l = 0; l < lanes_used; ++l) {
      const std::size_t p = lane_pairs[static_cast<std::size_t>(l)];
      n[l] = static_cast<std::int64_t>(batch.refs[p].size());
      m[l] = static_cast<std::int64_t>(batch.queries[p].size());
      band[l] = lane_band(batch, p);
      last_row[l] = std::min(n[l] - 1, m[l] - 1 + band[l]);
      alive[l] = n[l] > 0 && m[l] > 0;
      max_n = std::max(max_n, n[l]);
      max_m = std::max(max_m, m[l]);
    }
    if (max_n == 0 || max_m == 0) {
      finish(req, lane_pairs, nullptr, nullptr, nullptr, nullptr, cells_acc);
      return;
    }

    // --- SoA transposed base buffers -----------------------------------
    const std::vector<std::uint8_t> refs_t = transpose_bases<kW>(batch.refs, lane_pairs, n, max_n);
    const std::vector<std::uint8_t> queries_t =
        transpose_bases<kW>(batch.queries, lane_pairs, m, max_m);

    // --- DP state -------------------------------------------------------
    // H[j] / F[j]: column state vectors. Zero-initialisation doubles as the
    // out-of-band value (H = 0; F = 0 is the saturating image of -inf).
    LaneBuffer<Elem> h_col(static_cast<std::size_t>(max_m) * kW, 0);
    LaneBuffer<Elem> f_col(static_cast<std::size_t>(max_m) * kW, 0);

    const ScoreVecs<Ops> sv(*req.scoring);
    const Vec sat_v = Ops::splat(static_cast<Elem>(Ops::kSatMax));
    const Vec zdrop_v = Ops::splat(ScoreVecs<Ops>::clamp(std::max<Score>(req.zdrop, 0)));

    Vec best = Ops::zero();
    Vec overflow = Ops::zero();
    IVec best_row[kKH], best_col[kKH];
    for (int h = 0; h < kKH; ++h) best_row[h] = best_col[h] = Ops::izero();

    alignas(32) std::uint16_t lo16[kW], hi16[kW];
    alignas(32) std::uint8_t mask_bytes[kW];

    for (std::int64_t i = 0; i < max_n; ++i) {
      // Per-lane window for this row (scalar side; empty = {0xFFFF, 0}).
      std::int64_t union_lo = max_m, union_hi = -1;
      bool any_alive = false;
      for (int l = 0; l < kW; ++l) {
        lo16[l] = 0xFFFF;
        hi16[l] = 0;
        if (!alive[l] || i >= n[l]) continue;
        const std::int64_t lo = i > band[l] ? i - band[l] : 0;
        const std::int64_t hi = std::min(m[l] - 1, i + band[l]);
        if (lo > hi) {
          // The band moved past the query end: no row from here on holds
          // in-band cells for this lane (the oracle's empty-window rows).
          alive[l] = false;
          continue;
        }
        lo16[l] = static_cast<std::uint16_t>(lo);
        hi16[l] = static_cast<std::uint16_t>(hi);
        cells_acc[l] += static_cast<std::size_t>(hi - lo + 1);
        union_lo = std::min(union_lo, lo);
        union_hi = std::max(union_hi, hi);
        any_alive = true;
      }
      if (!any_alive) break;

      IVec lo_v[kKH], hi_v[kKH];
      for (int h = 0; h < kKH; ++h) {
        lo_v[h] = Ops::iload(lo16 + h * kIW);
        hi_v[h] = Ops::iload(hi16 + h * kIW);
      }

      const Vec ref_v = Ops::load_bases(refs_t.data() + static_cast<std::size_t>(i) * kW);
      const Vec ref_is_n = Ops::cmpeq(ref_v, sv.n_code);

      Vec carry = Ops::zero();   // H(i-1, j-1) diagonal feed
      Vec h_left = Ops::zero();  // H(i, j-1)
      Vec e = Ops::zero();       // E(i, j-1), clamped domain
      Vec row_best = Ops::zero();
      IVec row_arg[kKH];
      for (int h = 0; h < kKH; ++h) row_arg[h] = Ops::izero();

      // Start one column early so `carry` picks up H(i-1, lo-1) for lanes
      // whose window begins at union_lo (the oracle's h_diag seed). That
      // cell is out-of-band for every lane, so its own value is masked off.
      const std::int64_t j_start = union_lo > 0 ? union_lo - 1 : 0;
      for (std::int64_t j = j_start; j <= union_hi; ++j) {
        const IVec j_v = Ops::isplat(static_cast<std::uint16_t>(j));
        IVec m0 = Ops::iand(Ops::icmpge(j_v, lo_v[0]), Ops::icmpge(hi_v[0], j_v));
        IVec m1 = kKH == 2 ? Ops::iand(Ops::icmpge(j_v, lo_v[kKH - 1]),
                                       Ops::icmpge(hi_v[kKH - 1], j_v))
                           : m0;
        const Vec in_band = Ops::compress_mask(m0, m1);

        const Vec q_v = Ops::load_bases(queries_t.data() + static_cast<std::size_t>(j) * kW);
        Elem* const h_slot = h_col.data() + static_cast<std::size_t>(j) * kW;
        Elem* const f_slot = f_col.data() + static_cast<std::size_t>(j) * kW;
        e = Ops::maxu(Ops::subs(h_left, sv.alpha), Ops::subs(e, sv.beta));
        const Vec h_up = Ops::load(h_slot);
        const Vec f = Ops::maxu(Ops::subs(h_up, sv.alpha), Ops::subs(Ops::load(f_slot), sv.beta));
        Vec h = sv.diagonal(carry, ref_v, ref_is_n, q_v);
        carry = h_up;
        h = Ops::maxu(h, e);
        h = Ops::maxu(h, f);
        h = Ops::vand(h, in_band);
        Ops::store(h_slot, h);
        Ops::store(f_slot, Ops::vand(f, in_band));
        h_left = h;

        // Endpoint bookkeeping: first j that strictly improves the running
        // row maximum = smallest query_end among the row's best cells.
        const Vec gt = Ops::cmpgt(h, row_best);
        row_best = Ops::maxu(row_best, h);
        for (int half = 0; half < kKH; ++half) {
          row_arg[half] = Ops::iblend(Ops::expand_mask(gt, half), j_v, row_arg[half]);
        }
      }

      // Global best: a row that strictly improves it sets ref_end = i (the
      // first row carrying the final maximum, the oracle's tie-break).
      const Vec improved = Ops::cmpgt(row_best, best);
      best = Ops::maxu(best, row_best);
      const IVec i_v = Ops::isplat(static_cast<std::uint16_t>(i));
      for (int half = 0; half < kKH; ++half) {
        const IVec wide = Ops::expand_mask(improved, half);
        best_row[half] = Ops::iblend(wide, i_v, best_row[half]);
        best_col[half] = Ops::iblend(wide, row_arg[half], best_col[half]);
      }

      // Overflow eviction: a saturated lane's scores are untrustworthy from
      // this row on — hand the pair to the wider pass.
      const Vec sat = Ops::cmpeq(row_best, sat_v);
      if (Ops::any(sat)) {
        Ops::store_mask(mask_bytes, sat);
        overflow = Ops::vor(overflow, sat);
        for (int l = 0; l < kW; ++l) {
          if (mask_bytes[l]) alive[l] = false;
        }
      }

      // Z-drop (oracle rule): while rows with in-band cells remain, stop a
      // lane whose row best trails its global best by more than zdrop. The
      // clamped-domain comparison is exact for unsaturated lanes.
      if (req.zdrop > 0) {
        const Vec drop = Ops::cmpgt(Ops::subs(best, zdrop_v), row_best);
        if (Ops::any(drop)) {
          Ops::store_mask(mask_bytes, drop);
          for (int l = 0; l < kW; ++l) {
            if (mask_bytes[l] && alive[l] && i < last_row[l]) alive[l] = false;
          }
        }
      }
    }

    alignas(32) Elem best_out[kW];
    alignas(32) std::uint16_t row_out[kW], col_out[kW];
    alignas(32) std::uint8_t of_out[kW];
    Ops::store(best_out, best);
    Ops::store_mask(of_out, overflow);
    for (int h = 0; h < kKH; ++h) {
      Ops::istore(row_out + h * kIW, best_row[h]);
      Ops::istore(col_out + h * kIW, best_col[h]);
    }
    finish(req, lane_pairs, best_out, row_out, col_out, of_out, cells_acc);
  }

 private:
  using Elem = typename Ops::Elem;

  static void finish(const PassRequest& req, std::span<const std::size_t> lane_pairs,
                     const Elem* best, const std::uint16_t* row, const std::uint16_t* col,
                     const std::uint8_t* overflow, const std::size_t* cells) {
    for (std::size_t l = 0; l < lane_pairs.size(); ++l) {
      const std::size_t p = lane_pairs[l];
      if (overflow != nullptr && overflow[l]) {
        (*req.overflowed)[p] = 1;
        continue;
      }
      AlignmentResult r;
      if (best != nullptr && best[l] > 0) {
        r.score = static_cast<Score>(best[l]);
        r.ref_end = static_cast<std::int32_t>(row[l]);
        r.query_end = static_cast<std::int32_t>(col[l]);
      }
      (*req.results)[p] = r;
      (*req.cells)[p] = cells[l];
    }
  }
};

/// Shared pass driver: cohorts run independently (host-parallel when a
/// thread budget allows), each writing only its own pairs' slots.
template <class Ops>
void run_pass(const PassRequest& req) {
  constexpr std::size_t W = static_cast<std::size_t>(Ops::kLanes);
  const std::size_t cohorts = (req.pairs.size() + W - 1) / W;
  util::parallel_for_indexed(
      cohorts,
      [&](std::size_t c) {
        const std::size_t begin = c * W;
        const std::size_t count = std::min(W, req.pairs.size() - begin);
        CohortKernel<Ops>::run_cohort(req, req.pairs.subspan(begin, count));
      },
      req.threads);
}

/// The traced cohort sweep: the score kernel's lane layout, masks and
/// saturating DP over rows [0, max rows) of the cohort's rectangles, each
/// lane clipped to its own endpoint rectangle and band. Every visited cell
/// yields one TraceCode per lane, stored row by row over the CodeRows hull
/// into a per-thread buffer, and each lane is then walked from its endpoint
/// by align::walk_codes.
///
/// The codes equal the int32 oracle's: the endpoint is the row-major first
/// maximum, so no H in the rectangle exceeds its score (< kSatMax, no
/// saturation); cells read only up and left, so clipping changes no value
/// inside the rectangle; every row up to ref_end was computed by the score
/// pass, so z-drop never applies. Saturating E/F equal max(E, 0)/max(F, 0),
/// which decides every comparison the walk reads exactly: it reads only
/// H > 0 cells and gap runs whose value stays > 0.
template <class Ops>
class TracedCohortKernel {
 public:
  static constexpr int kW = Ops::kLanes;
  static_assert(kW == kTraceLanes && Ops::kIdxHalves == 1,
                "the traced pass runs 16-bit lanes, one index vector per score vector");

  static void run_cohort(const TracePassRequest& req, std::span<const std::size_t> lane_pairs,
                         std::vector<std::uint8_t>& codes) {
    using Vec = typename Ops::Vec;
    using IVec = typename Ops::IVec;
    using Elem = typename Ops::Elem;

    const seq::PairBatch& batch = *req.batch;
    const int lanes_used = static_cast<int>(lane_pairs.size());

    TraceLane lane[kW];
    std::int64_t rows[kW] = {}, cols[kW] = {};
    CodeRows hull;
    std::int64_t max_cols = 0;
    for (int l = 0; l < lanes_used; ++l) {
      const std::size_t p = lane_pairs[static_cast<std::size_t>(l)];
      lane[l] = trace_lane(batch, p, req.ends[p]);
      rows[l] = lane[l].rows;
      cols[l] = lane[l].cols;
      hull.add(lane[l]);
      max_cols = std::max(max_cols, lane[l].cols);
    }
    SALOBA_CHECK_MSG(hull.columns * kW <= kTraceCodeBytes, "traced cohort over the code cap");
    const auto max_rows = static_cast<std::int64_t>(hull.lo.size());

    // Code layout: row i's hull columns from row_off[i] on, kW bytes each.
    std::vector<std::size_t> row_off(hull.lo.size() + 1, 0);
    for (std::size_t r = 0; r < hull.lo.size(); ++r) {
      row_off[r + 1] = row_off[r] + static_cast<std::size_t>(hull.hi[r] - hull.lo[r] + 1) * kW;
    }
    codes.resize(row_off.back());

    const std::vector<std::uint8_t> refs_t =
        transpose_bases<kW>(batch.refs, lane_pairs, rows, max_rows);
    const std::vector<std::uint8_t> queries_t =
        transpose_bases<kW>(batch.queries, lane_pairs, cols, max_cols);
    LaneBuffer<Elem> h_col(static_cast<std::size_t>(max_cols) * kW, 0);
    LaneBuffer<Elem> f_col(static_cast<std::size_t>(max_cols) * kW, 0);

    const ScoreVecs<Ops> sv(*req.scoring);
    const Vec zero = Ops::zero();
    const Vec diag_code = Ops::splat(trace_code::kDiag);
    const Vec e_code = Ops::splat(trace_code::kFromE);
    const Vec f_code = Ops::splat(trace_code::kFromF);
    const Vec e_open_bit = Ops::splat(trace_code::kEOpen);
    const Vec f_open_bit = Ops::splat(trace_code::kFOpen);

    alignas(32) std::uint16_t lo16[kW], hi16[kW];
    for (std::int64_t i = 0; i < max_rows; ++i) {
      // Per-lane window for this row (empty = {0xFFFF, 0}).
      for (int l = 0; l < kW; ++l) {
        const bool live = l < lanes_used && i < lane[l].rows;
        lo16[l] = live ? static_cast<std::uint16_t>(lane[l].lo(i)) : 0xFFFF;
        hi16[l] = live ? static_cast<std::uint16_t>(lane[l].hi(i)) : 0;
      }
      const IVec lo_v = Ops::iload(lo16);
      const IVec hi_v = Ops::iload(hi16);
      const std::int64_t row_lo = hull.lo[static_cast<std::size_t>(i)];
      const std::int64_t row_hi = hull.hi[static_cast<std::size_t>(i)];

      const Vec ref_v = Ops::load_bases(refs_t.data() + static_cast<std::size_t>(i) * kW);
      const Vec ref_is_n = Ops::cmpeq(ref_v, sv.n_code);

      // H(i-1, row_lo-1) feeds the first diagonal; that cell is out of band
      // for every lane in this row, so it is cleared for the rows below
      // (what the score kernel's extra masked column does).
      Vec carry = zero;
      if (row_lo > 0) {
        Elem* const h_slot = h_col.data() + static_cast<std::size_t>(row_lo - 1) * kW;
        carry = Ops::load(h_slot);
        Ops::store(h_slot, zero);
        Ops::store(f_col.data() + static_cast<std::size_t>(row_lo - 1) * kW, zero);
      }
      Vec h_left = zero;  // H(i, j-1)
      Vec e = zero;       // E(i, j-1), clamped domain
      std::uint8_t* out = codes.data() + row_off[static_cast<std::size_t>(i)];
      for (std::int64_t j = row_lo; j <= row_hi; ++j, out += kW) {
        const IVec j_v = Ops::isplat(static_cast<std::uint16_t>(j));
        const IVec in_window = Ops::iand(Ops::icmpge(j_v, lo_v), Ops::icmpge(hi_v, j_v));
        const Vec in_band = Ops::compress_mask(in_window, in_window);
        const Vec q_v = Ops::load_bases(queries_t.data() + static_cast<std::size_t>(j) * kW);

        Elem* const h_slot = h_col.data() + static_cast<std::size_t>(j) * kW;
        Elem* const f_slot = f_col.data() + static_cast<std::size_t>(j) * kW;
        const Vec e_open = Ops::subs(h_left, sv.alpha);
        e = Ops::maxu(e_open, Ops::subs(e, sv.beta));
        const Vec h_up = Ops::load(h_slot);
        const Vec f_open = Ops::subs(h_up, sv.alpha);
        const Vec f = Ops::maxu(f_open, Ops::subs(Ops::load(f_slot), sv.beta));
        const Vec diag = sv.diagonal(carry, ref_v, ref_is_n, q_v);
        carry = h_up;
        const Vec h = Ops::vand(Ops::maxu(Ops::maxu(diag, e), f), in_band);
        Ops::store(h_slot, h);
        Ops::store(f_slot, Ops::vand(f, in_band));
        h_left = h;

        // H source in the walk's order (M, then E, then F; 0 = stop) plus
        // the open bits.
        Vec code = Ops::blend(Ops::cmpeq(h, e), e_code, f_code);
        code = Ops::blend(Ops::cmpeq(h, diag), diag_code, code);
        code = Ops::andnot(Ops::cmpeq(h, zero), code);
        code = Ops::vor(code, Ops::vand(Ops::cmpeq(e, e_open), e_open_bit));
        code = Ops::vor(code, Ops::vand(Ops::cmpeq(f, f_open), f_open_bit));
        Ops::store_codes(out, code);
      }
    }

    for (int l = 0; l < lanes_used; ++l) {
      const std::size_t p = lane_pairs[static_cast<std::size_t>(l)];
      TracebackResult& r = (*req.results)[p];
      r.traced.end = req.ends[p];
      const std::size_t reads = walk_codes(r.traced, [&](std::size_t row, std::size_t col) {
        const auto c = static_cast<std::int64_t>(col);
        SALOBA_CHECK_MSG(c >= hull.lo[row] && c <= hull.hi[row], "traceback walk left the band");
        return codes[row_off[row] + static_cast<std::size_t>(c - hull.lo[row]) * kW +
                     static_cast<std::size_t>(l)];
      });
      r.stats.forward_cells = lane[l].cells();
      r.stats.traffic_bytes = r.stats.forward_cells + reads;
    }
  }
};

/// Traced pass driver: cohorts run independently, each thread reusing one
/// code buffer across the cohorts it runs.
template <class Ops>
void run_trace_pass(const TracePassRequest& req) {
  util::parallel_for_indexed(
      req.cohort_begin.size() - 1,
      [&](std::size_t c) {
        thread_local std::vector<std::uint8_t> codes;
        const std::size_t begin = req.cohort_begin[c];
        TracedCohortKernel<Ops>::run_cohort(
            req, req.pairs.subspan(begin, req.cohort_begin[c + 1] - begin), codes);
      },
      req.threads);
}

}  // namespace saloba::align::simd::detail
