#include "align/traceback_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>


namespace saloba::align {
namespace {

constexpr Score kNegInf = std::numeric_limits<Score>::min() / 4;

/// Row-state snapshot taken after `row` forward rows: the h_row / f_col
/// arrays restricted to the columns the next block can still read from
/// pre-snapshot rows — everything else is the never-written initial state
/// (H = 0, F = -inf), so a fresh buffer plus this window restores the sweep
/// exactly.
struct Checkpoint {
  std::size_t col_lo = 0;  ///< first h_row/f_col index stored
  std::vector<Score> h;
  std::vector<Score> f;
};

struct Engine {
  Engine(std::span<const seq::BaseCode> ref_, std::span<const seq::BaseCode> query_,
         const ScoringScheme& scoring_, std::size_t band_, std::size_t chunk_)
      : ref(ref_), query(query_), scoring(scoring_), band(band_), chunk(chunk_) {}

  std::span<const seq::BaseCode> ref;
  std::span<const seq::BaseCode> query;
  const ScoringScheme& scoring;
  std::size_t band;   ///< effective band (>= 1, covers the table if unbanded)
  std::size_t chunk;  ///< rows per checkpoint block
  std::vector<Checkpoint> checkpoints;
  TracebackStats stats;

  std::size_t n() const { return ref.size(); }
  std::size_t m() const { return query.size(); }

  /// The snapshot window for a checkpoint taken after 0-based row `row`:
  /// rows >= `row` read h_row/f_col indices in [row - band, row + band + 1];
  /// anything outside was either never written before `row` (initial state)
  /// or gets rewritten before it is read again.
  std::pair<std::size_t, std::size_t> window_after(std::size_t row) const {
    std::size_t hi = std::min(m(), row + band + 1);
    // Rows past m - 1 + band have empty band windows; clamp so the snapshot
    // degenerates cleanly instead of underflowing.
    std::size_t lo = std::min(row > band ? row - band : 0, hi);
    return {lo, hi};
  }

  void snapshot(std::size_t row, const std::vector<Score>& h_row,
                const std::vector<Score>& f_col) {
    auto [lo, hi] = window_after(row);
    Checkpoint cp;
    cp.col_lo = lo;
    cp.h.assign(h_row.begin() + static_cast<std::ptrdiff_t>(lo),
                h_row.begin() + static_cast<std::ptrdiff_t>(hi + 1));
    cp.f.assign(f_col.begin() + static_cast<std::ptrdiff_t>(lo),
                f_col.begin() + static_cast<std::ptrdiff_t>(hi + 1));
    stats.traffic_bytes += 2 * cp.h.size() * sizeof(Score);
    checkpoints.push_back(std::move(cp));
  }

  /// Walk-time row state, allocated once per pair and selectively reset
  /// between block re-derivations: a full O(m) clear per block would dwarf
  /// the O(rows·band) replay work on long banded pairs.
  std::vector<Score> walk_h, walk_f;
  std::size_t dirty_lo = 1, dirty_hi = 0;  ///< columns the last restore+sweep touched
  bool walk_ready = false;

  /// The re-derived block: codes of 0-based rows [block_first, block_end),
  /// row r's band window starting at column code_lo[r - block_first] and
  /// stored from codes[code_off[r - block_first]] on. One flat buffer,
  /// reused by every block of the pair.
  std::size_t block_first = 0, block_end = 0;
  std::vector<std::size_t> code_lo, code_off;
  std::vector<std::uint8_t> codes;

  /// Rebuilds the row state "after `block_index`'s snapshot row" into
  /// walk_h/walk_f. Every write of the restore and of the subsequent block
  /// sweep (rows [first0, end0)) lands in [checkpoint col_lo, end0 + band],
  /// so resetting just that range returns the buffers to their pristine
  /// H = 0 / F = -inf state.
  void restore(std::size_t block_index, std::size_t end0) {
    if (!walk_ready) {
      walk_h.assign(m() + 1, 0);
      walk_f.assign(m() + 1, kNegInf);
      walk_ready = true;
    } else {
      for (std::size_t k = dirty_lo; k <= dirty_hi; ++k) {
        walk_h[k] = 0;
        walk_f[k] = kNegInf;
      }
    }
    const Checkpoint& cp = checkpoints[block_index];
    std::copy(cp.h.begin(), cp.h.end(),
              walk_h.begin() + static_cast<std::ptrdiff_t>(cp.col_lo));
    std::copy(cp.f.begin(), cp.f.end(),
              walk_f.begin() + static_cast<std::ptrdiff_t>(cp.col_lo));
    dirty_lo = cp.col_lo;
    dirty_hi = std::max(std::min(m(), end0 + band), cp.col_lo + cp.h.size() - 1);
  }

  /// Forward sweep over 0-based rows [row_begin, row_end) from the given row
  /// state — the exact loop of align::smith_waterman_banded. kRecord appends
  /// every row's band window start and cell codes to the block buffers;
  /// `cells` counts the work. `best`, when given, tracks the endpoint.
  template <bool kRecord>
  void sweep(std::size_t row_begin, std::size_t row_end, std::vector<Score>& h_row,
             std::vector<Score>& f_col, std::size_t& cells, AlignmentResult* best,
             Score* row_best_out) {
    const Score alpha = scoring.alpha();
    const Score beta = scoring.beta();
    for (std::size_t i = row_begin; i < row_end; ++i) {
      std::size_t j_lo = (i >= band) ? i - band : 0;
      std::size_t j_hi = std::min(m() - 1, i + band);
      if constexpr (kRecord) code_lo.push_back(j_lo);
      if (j_lo > j_hi) {
        if constexpr (kRecord) code_off.push_back(codes.size());
        continue;
      }

      Score h_diag = (j_lo == 0) ? 0 : h_row[j_lo];
      Score h_left = 0;
      Score e = kNegInf;
      Score row_best = kNegInf;
      for (std::size_t j = j_lo; j <= j_hi; ++j) {
        const Score e_open = h_left - alpha;
        e = std::max(e_open, e - beta);
        const Score f_open = h_row[j + 1] - alpha;
        const Score f = std::max(f_open, f_col[j + 1] - beta);
        const Score diag = h_diag + scoring.substitution(ref[i], query[j]);
        const Score h = std::max({Score{0}, diag, e, f});

        h_diag = h_row[j + 1];
        h_row[j + 1] = h;
        f_col[j + 1] = f;
        h_left = h;
        ++cells;
        row_best = std::max(row_best, h);
        if constexpr (kRecord) {
          using namespace trace_code;
          const std::uint8_t source = h == 0      ? kStop
                                      : h == diag ? kDiag
                                      : h == e    ? kFromE
                                                  : kFromF;
          codes.push_back(static_cast<std::uint8_t>(source | (e == e_open ? kEOpen : 0) |
                                                    (f == f_open ? kFOpen : 0)));
        }

        if (best && h > best->score) {
          *best = AlignmentResult{h, static_cast<std::int32_t>(i),
                                  static_cast<std::int32_t>(j)};
        }
      }
      if constexpr (kRecord) code_off.push_back(codes.size());
      if (row_best_out) *row_best_out = row_best;
    }
  }

  /// Re-derives the codes of the block containing 0-based row `row` from
  /// its snapshot.
  void rederive(std::size_t row) {
    SALOBA_CHECK_MSG(row < n(), "traceback walk left the table");
    const std::size_t b = row / chunk;
    block_first = b * chunk;
    block_end = std::min(n(), block_first + chunk);
    restore(b, block_end);
    code_lo.clear();
    code_off.assign(1, 0);
    codes.clear();
    sweep<true>(block_first, block_end, walk_h, walk_f, stats.replay_cells, nullptr, nullptr);
    stats.traffic_bytes += codes.size();
  }

  /// Code of 0-based cell (row, col), re-deriving the block above once the
  /// walk leaves the current one.
  std::uint8_t code_at(std::size_t row, std::size_t col) {
    if (row < block_first || row >= block_end) rederive(row);
    const std::size_t r = row - block_first;
    SALOBA_CHECK_MSG(col >= code_lo[r] && col - code_lo[r] < code_off[r + 1] - code_off[r],
                     "traceback walk left the band");
    return codes[code_off[r] + col - code_lo[r]];
  }
};

}  // namespace

TracebackResult banded_traceback(std::span<const seq::BaseCode> ref,
                                 std::span<const seq::BaseCode> query,
                                 const ScoringScheme& scoring,
                                 const TracebackParams& params) {
  SALOBA_CHECK(scoring.valid());
  TracebackResult out;
  const std::size_t n = ref.size();
  const std::size_t m = query.size();
  if (n == 0 || m == 0) return out;

  Engine eng(ref, query, scoring, params.band != 0 ? params.band : std::max(n, m),
             params.checkpoint_rows != 0
                 ? params.checkpoint_rows
                 : std::max<std::size_t>(
                       8, static_cast<std::size_t>(std::sqrt(static_cast<double>(n)))));

  // --- Phase A: checkpointed forward sweep (smith_waterman_banded's loop,
  // z-drop rule included, snapshotting the row state every `chunk` rows).
  std::vector<Score> h_row(m + 1, 0), f_col(m + 1, kNegInf);
  AlignmentResult best;
  const std::size_t last_row = std::min(n - 1, m - 1 + eng.band);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % eng.chunk == 0) eng.snapshot(i, h_row, f_col);
    Score row_best = kNegInf;
    eng.sweep<false>(i, i + 1, h_row, f_col, eng.stats.forward_cells, &best, &row_best);
    if (params.zdrop > 0 && i < last_row && row_best < best.score - params.zdrop &&
        row_best != kNegInf) {
      eng.stats.zdropped = true;
      break;
    }
  }

  out.traced.end = best;
  if (best.score == 0) {
    out.stats = eng.stats;
    return out;
  }

  // --- Phase B: the shared walk over re-derived codes, one block at a
  // time. Every cell it reads is in band (a walk from an in-band H > 0 cell
  // only ever steps to in-band cells), so banded paths never leave the band.
  eng.stats.traffic_bytes +=
      walk_codes(out.traced, [&](std::size_t r, std::size_t c) { return eng.code_at(r, c); });
  out.stats = eng.stats;
  return out;
}

}  // namespace saloba::align
