// Bridges the read-mapping pipeline to SAM output. Mapped reads' CIGARs
// come from the batched traceback phase (ReadMapping::traced, filled by the
// traceback-enabled map_batch/map_stream paths); a mapping without a stored
// trace is traced on its genome window by trace_windows, the in-process
// SIMD score pass plus cohort traceback. MAPQ derives from the score margin.
#pragma once

#include "seedext/pipeline.hpp"
#include "seq/sam.hpp"
#include "seq/sequence.hpp"

namespace saloba::seedext {

/// The genome window a mapped read's CIGAR is defined over: the mapped
/// position padded by max(32, len / 5) of slack on both sides (gaps may
/// shift the true start), clamped to the genome. Shared by the batched
/// traceback stage (ReadMapper::attach_tracebacks) and to_sam_record so the
/// two can never disagree about coordinates.
struct MappedWindow {
  std::size_t start = 0;  ///< 0-based first genome base of the window
  std::size_t end = 0;    ///< past-the-end genome base
};
MappedWindow mapped_window(std::size_t genome_len, std::size_t ref_pos,
                           std::size_t oriented_len);

/// Traces every pair of `batch` in process: align::simd::align_batch finds
/// each pair's endpoint, then align::simd::traceback_batch walks each
/// endpoint rectangle. A one-pair batch runs align::banded_traceback
/// instead: the SIMD passes sweep a whole 16-pair cohort whatever its
/// occupancy, so one pair costs them a cohort's time (~1.5x the per-pair
/// engine on 250 bp read windows; from two pairs on the cohort wins).
/// Positive-score traces are bit-identical either way, under the batch's
/// bands; a zero-score pair has score 0 and no CIGAR. The fallback of
/// ReadMapper::attach_tracebacks (no traced extender) and of to_sam_record
/// (no stored trace).
std::vector<align::TracedAlignment> trace_windows(const seq::PairBatch& batch,
                                                  const align::ScoringScheme& scoring);

/// Builds a SAM record for one read. For mapped reads the CIGAR comes from
/// the stored traceback (or trace_windows on its window); unmapped reads get
/// flag 0x4 and star fields.
seq::SamRecord to_sam_record(const ReadMapper& mapper, const seq::Sequence& read,
                             const ReadMapping& mapping,
                             const std::string& reference_name = "synthetic");

/// Phred-style mapping quality in [0, 60] from the achieved fraction of the
/// maximum possible score (a simple, monotone surrogate for a posterior).
int mapq_from_score(align::Score score, std::size_t read_len,
                    const align::ScoringScheme& scoring);

}  // namespace saloba::seedext
