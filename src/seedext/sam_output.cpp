#include "seedext/sam_output.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "align/simd_engine.hpp"
#include "align/traceback_engine.hpp"
#include "util/check.hpp"

namespace saloba::seedext {

int mapq_from_score(align::Score score, std::size_t read_len,
                    const align::ScoringScheme& scoring) {
  if (read_len == 0 || score <= 0) return 0;
  double max_score = static_cast<double>(read_len) * scoring.match;
  double frac = std::clamp(static_cast<double>(score) / max_score, 0.0, 1.0);
  // Map [0.3, 1.0] onto [0, 60]; anything below 30% identity-score is 0.
  double q = (frac - 0.3) / 0.7 * 60.0;
  return std::clamp(static_cast<int>(std::lround(q)), 0, 60);
}

MappedWindow mapped_window(std::size_t genome_len, std::size_t ref_pos,
                           std::size_t oriented_len) {
  std::size_t slack = std::max<std::size_t>(32, oriented_len / 5);
  MappedWindow win;
  win.start = ref_pos > slack ? ref_pos - slack : 0;
  win.end = std::min(genome_len, ref_pos + oriented_len + slack);
  return win;
}

std::vector<align::TracedAlignment> trace_windows(const seq::PairBatch& batch,
                                                  const align::ScoringScheme& scoring) {
  if (batch.size() == 1) {
    return {align::banded_traceback(batch.refs[0], batch.queries[0], scoring,
                                    align::TracebackParams{batch.band_of(0)})
                .traced};
  }
  const std::vector<align::AlignmentResult> ends = align::simd::align_batch(batch, scoring);
  std::vector<align::TracebackResult> traces =
      align::simd::traceback_batch(batch, ends, scoring);
  std::vector<align::TracedAlignment> out;
  out.reserve(traces.size());
  for (align::TracebackResult& t : traces) out.push_back(std::move(t.traced));
  return out;
}

seq::SamRecord to_sam_record(const ReadMapper& mapper, const seq::Sequence& read,
                             const ReadMapping& mapping,
                             const std::string& reference_name) {
  seq::SamRecord record;
  record.qname = read.name.empty() ? "read" : read.name;
  record.seq = read.to_string();
  if (read.quality.size() == read.bases.size()) record.qual = read.quality;

  if (!mapping.mapped) {
    record.flags = seq::SamRecord::kFlagUnmapped;
    return record;
  }

  record.rname = reference_name;
  record.flags = mapping.reverse_strand ? seq::SamRecord::kFlagReverse : 0;

  const std::size_t read_len = read.bases.size();
  MappedWindow win = mapped_window(mapper.genome().size(), mapping.ref_pos, read_len);
  SALOBA_CHECK(win.end > win.start);

  align::TracedAlignment traced;
  if (mapping.has_traceback) {
    // The batched traceback phase already produced this window's CIGAR.
    traced = mapping.traced;
  } else {
    const auto& genome = mapper.genome();
    seq::PairBatch batch;
    batch.add(mapping.reverse_strand ? seq::reverse_complement(read.bases) : read.bases,
              std::vector<seq::BaseCode>(
                  genome.begin() + static_cast<std::ptrdiff_t>(win.start),
                  genome.begin() + static_cast<std::ptrdiff_t>(win.end)));
    traced = std::move(trace_windows(batch, mapper.params().scoring).front());
  }
  if (traced.end.score <= 0) {
    record.flags |= seq::SamRecord::kFlagUnmapped;
    return record;
  }

  record.pos = win.start + static_cast<std::size_t>(traced.ref_start) + 1;  // SAM is 1-based
  // Soft-clip query bases outside the local alignment.
  std::string cigar;
  if (traced.query_start > 0) cigar += std::to_string(traced.query_start) + "S";
  cigar += traced.cigar;
  std::size_t tail = read_len - static_cast<std::size_t>(traced.end.query_end) - 1;
  if (tail > 0) cigar += std::to_string(tail) + "S";
  record.cigar = cigar;
  record.mapq = mapq_from_score(traced.end.score, read_len, mapper.params().scoring);
  record.tags.push_back("AS:i:" + std::to_string(traced.end.score));
  return record;
}

}  // namespace saloba::seedext
