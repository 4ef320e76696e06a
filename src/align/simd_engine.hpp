// Inter-sequence SIMD extension engine (ROADMAP: "SIMD-striped extension on
// the host path"). Packs independent (query, reference) extension jobs into
// vector lanes — 32 pairs at 8-bit, 16 at 16-bit — and runs the banded,
// z-drop-aware affine DP on all of them in lockstep, AnySeq/GPU-style
// inter-task parallelism on the host. Results (score, ref_end, query_end,
// cells computed) are bit-identical to align::smith_waterman_banded /
// align::align_batch; overflow is handled by a widening rescue ladder:
//
//   8-bit saturating lanes  ->  16-bit saturating lanes  ->  int32 scalar
//
// A lane whose running score saturates is evicted and re-run in the next
// wider pass; pairs too long for 16-bit index bookkeeping go straight to
// the int32 path (smith_waterman_striped_ends when unbanded and un-pruned,
// smith_waterman_banded otherwise).
//
// ISA selection is a runtime decision: when the build enables AVX2
// (SALOBA_SIMD_AVX2) and the CPU reports it, the intrinsic kernels from
// simd_engine_avx2.cpp run; otherwise the portable OpsGeneric kernels do.
// Both implement the same Ops vocabulary (simd_vec.hpp) against the same
// kernel template (simd_kernel.hpp), so outputs never depend on the ISA.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "align/traceback_engine.hpp"
#include "seq/sequence.hpp"

namespace saloba::align::simd {

/// True when this binary contains the AVX2 kernels (build-time flag).
bool compiled_with_avx2();

/// True when the host CPU reports AVX2 (runtime CPUID).
bool cpu_supports_avx2();

/// The kernel flavor align_batch will dispatch to: "avx2" or "generic".
const char* isa_name();

/// Per-call engine telemetry.
struct EngineStats {
  std::size_t pairs = 0;          ///< total pairs aligned
  std::size_t pairs_8bit = 0;     ///< settled by the 8-bit pass
  std::size_t rescued_16bit = 0;  ///< settled by the 16-bit rescue pass
  std::size_t rescued_32bit = 0;  ///< settled by int32 scalar (incl. oversize)
  std::size_t cohorts = 0;        ///< vector cohorts executed (both widths)
  std::size_t cells = 0;          ///< in-band DP cells, oracle-identical count
  bool avx2 = false;              ///< intrinsic kernels were dispatched
  double wall_ms = 0.0;
};

/// Aligns every pair of `batch` through the SIMD ladder. Honors per-pair
/// bands (seq::PairBatch::band_of) and z-drop exactly like
/// align::align_batch — same scores, same endpoints, same cell counts,
/// deterministic input-order output. `threads` caps host threads across
/// cohorts (0 = default team).
std::vector<AlignmentResult> align_batch(const seq::PairBatch& batch,
                                         const ScoringScheme& scoring,
                                         EngineStats* stats = nullptr, int threads = 0,
                                         Score zdrop = 0);

/// Traceback phase of a batch whose score pass produced `ends` (size ==
/// batch.size()): one TracebackResult per pair, input order; a pair with a
/// zero score keeps the empty result. Pairs are traced in lockstep cohorts
/// of 16, one pair per 16-bit lane, each over its own endpoint rectangle
/// and band, storing a direction code per cell and walking it with
/// align::walk_codes. A pair stays on align::banded_traceback (with its band
/// and `zdrop`) when it is longer than the 16-bit position guard, its score
/// reaches the 16-bit ceiling, or its codes alone would pass a cohort's
/// 2 MiB code buffer (its stats are then banded_traceback's; a cohort pair
/// reports no replay cells). For every `ends` that a conformant score pass
/// (with this `zdrop`) produced, each trace is bit-identical to
/// banded_traceback's. `threads` caps host threads (0 = default team).
std::vector<TracebackResult> traceback_batch(const seq::PairBatch& batch,
                                             std::span<const AlignmentResult> ends,
                                             const ScoringScheme& scoring, Score zdrop = 0,
                                             int threads = 0);

}  // namespace saloba::align::simd
