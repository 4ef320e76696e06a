// The traceback engines behind the pipeline's two-phase alignment
// (AlignerOptions::traceback), and the one walk they share.
//
// Both engines reduce a DP cell to a direction code (trace_code below: where
// H came from, with M before E before F, plus the E-open and F-open bits)
// while they sweep, and then call walk_codes, the full-matrix oracle's
// M-before-E-before-F state machine (align/traceback.hpp) reading codes
// instead of H/E/F scores:
//
//   * align::simd::traceback_batch (align/simd_engine.hpp) traces cohorts
//     of pairs in lockstep, one pair per vector lane, over each pair's
//     score-pass endpoint rectangle — the pipeline's engine;
//   * banded_traceback (below) traces one pair in linear memory. It re-runs
//     the banded forward sweep (bit-identical to
//     align::smith_waterman_banded, z-drop included) keeping two row
//     arrays and snapshotting the band window every `checkpoint_rows` rows,
//     then walks backwards, re-deriving the codes of one
//     `checkpoint_rows`-row block at a time into one reused buffer. Memory
//     is O((N / checkpoint_rows + checkpoint_rows) * band). It serves the
//     pairs the cohort engine leaves out and is its oracle.
//
// Codes carry exactly the comparisons the oracle walk makes, so either
// engine's path is bit-identical to the full-matrix oracle: the same
// forward values (banded conformance) walked with the same preference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "align/traceback.hpp"
#include "seq/alphabet.hpp"
#include "util/check.hpp"

namespace saloba::align {

struct TracebackParams {
  /// Only cells with |i - j| <= band are computed; 0 = full table.
  std::size_t band = 0;
  /// Z-drop row pruning for the forward sweep, mirroring
  /// align::BandedParams::zdrop so traced endpoints stay bit-identical to a
  /// z-dropped score pass (<= 0 disables).
  Score zdrop = 0;
  /// Rows between row-state snapshots; 0 picks ~sqrt(|ref|), the memory
  /// sweet spot. 1 degenerates to "snapshot every row" (fuzzed).
  std::size_t checkpoint_rows = 0;
};

/// Cost accounting of one engine run — what the simulated backend converts
/// into modeled traceback-phase time and memory traffic.
///
/// banded_traceback counts its checkpointed forward sweep (forward_cells)
/// plus the block re-derivations of the walk (replay_cells). The cohort
/// engine (align::simd::traceback_batch) counts only forward_cells: the
/// pair's own in-band cells inside its endpoint rectangle, rows
/// [0, ref_end] x columns [0, query_end]. That count depends on the pair
/// alone, never on which lanes shared its cohort or on the thread count.
struct TracebackStats {
  std::size_t forward_cells = 0;  ///< cells swept before the walk
  std::size_t replay_cells = 0;   ///< cells re-derived during the walk
  /// Modeled memory traffic (bytes): snapshot writes and restores, one code
  /// byte stored per coded cell and one read per walk step.
  std::size_t traffic_bytes = 0;
  /// banded_traceback's forward sweep ended on the z-drop rule (the cohort
  /// engine never sweeps past the endpoint row, so it leaves this false).
  bool zdropped = false;

  std::size_t cells() const { return forward_cells + replay_cells; }
};

struct TracebackResult {
  TracedAlignment traced;
  TracebackStats stats;
};

/// Traces one pair. Endpoints follow the canonical improves() tie-break of
/// every score-pass implementation; the CIGAR is bit-identical to
/// smith_waterman_traceback(ref, query, scoring, band) whenever zdrop is off
/// (with zdrop the forward sweep — and hence the endpoint — matches
/// align::smith_waterman_banded instead). A banded trace never leaves
/// |i - j| <= band.
TracebackResult banded_traceback(std::span<const seq::BaseCode> ref,
                                 std::span<const seq::BaseCode> query,
                                 const ScoringScheme& scoring,
                                 const TracebackParams& params = {});

/// Direction code of one DP cell: bits 0-1 say where H came from (checked
/// in the oracle walk's order, M before E before F), bit 2 whether E was
/// opened from H(i, j-1) and bit 3 whether F was opened from H(i-1, j).
namespace trace_code {
inline constexpr std::uint8_t kStop = 0;  ///< H == 0: the local alignment starts here
inline constexpr std::uint8_t kDiag = 1;  ///< H == H(i-1, j-1) + S(i, j)
inline constexpr std::uint8_t kFromE = 2;  ///< H == E(i, j)
inline constexpr std::uint8_t kFromF = 3;  ///< H == F(i, j)
inline constexpr std::uint8_t kSource = 3;  ///< mask of the H-source bits
inline constexpr std::uint8_t kEOpen = 4;  ///< E(i, j) == H(i, j-1) - alpha
inline constexpr std::uint8_t kFOpen = 8;  ///< F(i, j) == H(i-1, j) - alpha
}  // namespace trace_code

/// The one traceback walk: from out.end (score > 0) back to the first
/// H == 0 cell, filling out's start coordinates and CIGAR. `code_at(row,
/// col)` returns the code of 0-based cell (row, col); rows never increase
/// between calls, so a caller may derive codes block by block. Returns the
/// number of codes read.
template <class CodeAt>
std::size_t walk_codes(TracedAlignment& out, CodeAt&& code_at) {
  enum class State { kH, kE, kF };
  State state = State::kH;
  std::string ops;
  std::size_t i = static_cast<std::size_t>(out.end.ref_end) + 1;
  std::size_t j = static_cast<std::size_t>(out.end.query_end) + 1;
  std::size_t reads = 0;
  SALOBA_CHECK_MSG((code_at(i - 1, j - 1) & trace_code::kSource) != trace_code::kStop,
                   "traceback endpoint holds H = 0");
  while (i > 0 && j > 0) {
    const std::uint8_t code = code_at(i - 1, j - 1);
    ++reads;
    if (state == State::kH) {
      const std::uint8_t source = code & trace_code::kSource;
      if (source == trace_code::kStop) break;
      if (source == trace_code::kDiag) {
        ops += 'M';
        --i;
        --j;
      } else {
        state = source == trace_code::kFromE ? State::kE : State::kF;
      }
    } else if (state == State::kE) {
      ops += 'I';
      --j;
      if (code & trace_code::kEOpen) state = State::kH;
    } else {  // State::kF
      ops += 'D';
      --i;
      if (code & trace_code::kFOpen) state = State::kH;
    }
  }
  out.ref_start = static_cast<std::int32_t>(i);
  out.query_start = static_cast<std::int32_t>(j);
  std::reverse(ops.begin(), ops.end());
  out.cigar = compress_cigar(ops);
  return reads;
}

}  // namespace saloba::align
