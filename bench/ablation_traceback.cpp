// Ablation: the batched traceback phase, end to end.
//
// Asserting harness (the CI smoke contract):
//   1. Turning the traceback phase on changes nothing about the score pass:
//      AlignOutput::results identical with and without it, on the CPU
//      backend and on a simulated kernel.
//   2. Every traced endpoint equals its score-pass result and the SAM
//      records the batched pipeline emits are byte-identical to the legacy
//      per-read full-matrix recompute.
//   3. The batched CIGAR pipeline (ReadMapper::map_batch with the traceback
//      stage: one in-process batch through seedext::trace_windows, the SIMD
//      score pass plus traceback_batch, whose oversize pairs run the
//      linear-memory engine) beats the legacy path — a serial
//      O(N*M)-memory smith_waterman_traceback per mapped read on the caller
//      thread — on wall clock. The workload is long reads, where the full
//      matrix (tens of MB per read) thrashes and the engines' working sets
//      do not; on multi-core hosts the batch additionally parallelizes
//      while the legacy path cannot.
//   4. The simulated backend reports the score-vs-traceback phase split
//      (AlignOutput::time_ms vs traceback_ms, KernelStats traceback_cells).
//   5. On the short-read window workload (250 bp Illumina reads, each traced
//      against its 350 bp mapped genome window, full table) the traced
//      Aligner's traceback phase — the SIMD cohort engine — returns traces
//      identical to per-pair align::banded_traceback, and when the AVX2
//      kernels are dispatched its traceback_ms is >= 4x lower, both on one
//      thread. The generic-fallback leg asserts identity only. Emits
//      BENCH_traceback.json.
// Any violation exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "align/simd_engine.hpp"
#include "align/traceback.hpp"
#include "align/traceback_engine.hpp"
#include "core/aligner.hpp"
#include "core/workload.hpp"
#include "seedext/sam_output.hpp"
#include "seq/random_genome.hpp"
#include "seq/read_simulator.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace saloba;

namespace {

bool check(bool ok, const char* what) {
  if (!ok) std::printf("FAIL: %s\n", what);
  return ok;
}

/// The pre-refactor SAM path: full-matrix traceback of each mapped read's
/// genome window, one read at a time on the caller thread.
seq::SamRecord legacy_record(const seedext::ReadMapper& mapper, const seq::Sequence& read,
                             const seedext::ReadMapping& mapping) {
  seq::SamRecord record;
  record.qname = read.name;
  record.seq = read.to_string();
  if (!mapping.mapped) {
    record.flags = seq::SamRecord::kFlagUnmapped;
    return record;
  }
  record.rname = "chrT";
  record.flags = mapping.reverse_strand ? seq::SamRecord::kFlagReverse : 0;
  const auto& genome = mapper.genome();
  std::vector<seq::BaseCode> oriented =
      mapping.reverse_strand ? seq::reverse_complement(read.bases) : read.bases;
  auto win = seedext::mapped_window(genome.size(), mapping.ref_pos, oriented.size());
  std::span<const seq::BaseCode> window(genome.data() + win.start, win.end - win.start);
  auto traced = align::smith_waterman_traceback(window, oriented, mapper.params().scoring);
  if (traced.end.score <= 0) {
    record.flags |= seq::SamRecord::kFlagUnmapped;
    return record;
  }
  record.pos = win.start + static_cast<std::size_t>(traced.ref_start) + 1;
  std::string cigar;
  if (traced.query_start > 0) cigar += std::to_string(traced.query_start) + "S";
  cigar += traced.cigar;
  std::size_t tail = oriented.size() - static_cast<std::size_t>(traced.end.query_end) - 1;
  if (tail > 0) cigar += std::to_string(tail) + "S";
  record.cigar = cigar;
  record.mapq = seedext::mapq_from_score(traced.end.score, read.bases.size(),
                                         mapper.params().scoring);
  record.tags.push_back("AS:i:" + std::to_string(traced.end.score));
  return record;
}

/// Min-of-reps wall time of `run`.
template <typename Run>
double best_ms(int reps, Run run) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const util::Timer timer;
    run();
    const double ms = timer.millis();
    best = r == 0 ? ms : std::min(best, ms);
  }
  return best;
}

std::string render(const std::vector<seq::SamRecord>& records) {
  std::ostringstream out;
  seq::SamHeader header;
  header.reference_name = "chrT";
  seq::SamWriter writer(out, header);
  for (const auto& r : records) writer.write(r);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("ablation_traceback", "batched traceback phase vs per-read recompute");
  args.add_int("reads", "long reads for the SAM pipeline comparison", 80);
  args.add_int("read_len", "read length for the SAM pipeline comparison", 1500);
  args.add_int("pairs", "pairs for the phase-split harness", 64);
  args.add_flag("quick", "CI smoke mode: smaller workload");
  if (!args.parse(argc, argv)) return 1;

  const bool quick = args.get_flag("quick");
  const std::size_t n_reads = quick ? 20 : static_cast<std::size_t>(args.get_int("reads"));
  bool ok = true;

  // --- 1. Score pass untouched by the phase, CPU and simulated ------------
  auto genome = core::make_genome(1 << 20);
  auto phase_batch =
      core::make_fig6_batch(genome, 512, static_cast<std::size_t>(args.get_int("pairs")),
                            /*seed=*/13);
  for (core::Backend backend : {core::Backend::kCpu, core::Backend::kSimulated}) {
    core::AlignerOptions opts;
    opts.backend = backend;
    auto plain = core::Aligner(opts).align(phase_batch);
    opts.traceback = true;
    auto traced = core::Aligner(opts).align(phase_batch);
    ok &= check(plain.results == traced.results,
                "traceback-on results identical to the score-only pass");
    std::size_t agree = 0;
    for (std::size_t i = 0; i < phase_batch.size(); ++i) {
      agree += traced.traced[i].end == traced.results[i];
    }
    ok &= check(agree == phase_batch.size(),
                "every traced endpoint equals its score-pass result");
    if (backend == core::Backend::kSimulated) {
      // --- 4. Phase split on the simulated device -----------------------
      ok &= check(traced.traceback_ms > 0.0, "simulated traceback phase time reported");
      ok &= check(traced.kernel_stats &&
                      traced.kernel_stats->totals.traceback_cells == traced.traceback_cells,
                  "KernelStats traceback_cells matches the phase's cell count");
      ok &= check(traced.time_breakdown && traced.time_breakdown->traceback_ms > 0.0,
                  "TimeBreakdown carries the traceback component");
      std::printf(
          "Phase split (saloba kernel, %zu pairs of 512 bp): score %.3f ms, traceback "
          "%.3f ms (%.1f%% of total), %.1f M traceback cells\n",
          phase_batch.size(), traced.time_ms, traced.traceback_ms,
          100.0 * traced.traceback_ms / (traced.time_ms + traced.traceback_ms),
          static_cast<double>(traced.traceback_cells) / 1e6);
    }
  }

  // --- 2 + 3. Batched CIGAR pipeline vs legacy per-read recompute ---------
  seq::ReadProfile profile =
      seq::ReadProfile::equal_length(static_cast<std::size_t>(args.get_int("read_len")));
  profile.mutation_rate = 0.02;
  profile.error_rate = 0.01;
  seq::ReadSimulator sim(genome, profile, 29);
  auto simulated = sim.simulate(n_reads);
  std::vector<seq::Sequence> reads;
  std::vector<std::vector<seq::BaseCode>> read_seqs;
  for (auto& r : simulated) {
    reads.push_back(r.read);
    read_seqs.push_back(r.read.bases);
  }

  seedext::ReadMapper mapper(genome, seedext::MapperParams{});
  // Plain score-pass aligner for the extension stage: the traceback phase
  // belongs to the window batch, not to every extension job.
  core::Aligner aligner{core::AlignerOptions{}};

  // Legacy: extension-batched mapping, then one full-matrix traceback per
  // mapped read, serial on the caller thread (the pre-refactor
  // to_sam_record). Best-of-N so scheduler noise on a loaded runner cannot
  // mask the structural margin (full-matrix thrash + serial caller thread
  // vs cache-resident engine + host-parallel batch).
  auto time_legacy = [&](int repeats, double& ms_out) {
    std::vector<seq::SamRecord> out;
    for (int rep = 0; rep < repeats; ++rep) {
      util::Timer timer;
      auto legacy_mappings = mapper.map_batch(read_seqs, aligner.batch_extender());
      out.clear();
      for (std::size_t i = 0; i < reads.size(); ++i) {
        out.push_back(legacy_record(mapper, reads[i], legacy_mappings[i]));
      }
      double ms = timer.millis();
      ms_out = rep == 0 ? ms : std::min(ms_out, ms);
    }
    return out;
  };

  // Batched: the traceback stage runs as one in-process batch (null trace =
  // seedext::trace_windows; a traced extender routes the same batch through
  // the scheduler instead) and to_sam_record just consumes the stored
  // CIGARs.
  std::vector<seedext::ReadMapping> mappings;
  auto time_batched = [&](int repeats, double& ms_out) {
    std::vector<seq::SamRecord> out;
    for (int rep = 0; rep < repeats; ++rep) {
      util::Timer timer;
      auto m = mapper.map_batch(read_seqs, aligner.batch_extender(),
                                seedext::TracedBatchExtender{});
      out.clear();
      for (std::size_t i = 0; i < reads.size(); ++i) {
        out.push_back(seedext::to_sam_record(mapper, reads[i], m[i], "chrT"));
      }
      double ms = timer.millis();
      ms_out = rep == 0 ? ms : std::min(ms_out, ms);
      mappings = std::move(m);
    }
    return out;
  };

  // Up to two attempts: a transient noisy-neighbor loss on a shared CI
  // runner gets one retry at more repeats; only a reproducible loss fails.
  double legacy_ms = 0.0;
  double batched_ms = 0.0;
  std::vector<seq::SamRecord> legacy_records;
  std::vector<seq::SamRecord> records;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int repeats = attempt == 0 ? 3 : 5;
    legacy_records = time_legacy(repeats, legacy_ms);
    records = time_batched(repeats, batched_ms);
    if (batched_ms < legacy_ms) break;
    std::printf("(wall-clock attempt %d inconclusive: %.1f ms vs %.1f ms — retrying)\n",
                attempt + 1, legacy_ms, batched_ms);
  }

  std::size_t mapped = 0;
  for (const auto& m : mappings) mapped += m.mapped;
  std::printf(
      "SAM pipeline (%zu reads, %zu mapped): legacy per-read recompute %.1f ms, batched "
      "CIGAR pipeline %.1f ms (%.2fx)\n",
      reads.size(), mapped, legacy_ms, batched_ms, legacy_ms / batched_ms);

  ok &= check(render(records) == render(legacy_records),
              "batched SAM byte-identical to the legacy per-read path");
  ok &= check(mapped > 0, "the workload actually mapped reads");
  ok &= check(batched_ms < legacy_ms,
              "batched CIGAR pipeline beats the per-read recompute on wall clock");

  // --- 5. Window traceback: SIMD cohort engine vs per-pair engine ---------
  // The window batch is exactly what the mapper's traceback stage sends the
  // traced Aligner: captured from one map_batch call over Illumina reads.
  seq::ReadSimulator window_sim(genome, seq::ReadProfile::illumina_250bp(), 31);
  std::vector<std::vector<seq::BaseCode>> window_reads;
  for (auto& r : window_sim.simulate(quick ? 256 : 1024)) window_reads.push_back(r.read.bases);
  seq::PairBatch windows;
  mapper.map_batch(window_reads, aligner.batch_extender(),
                   [&](const seq::PairBatch& batch) {
                     windows = batch;
                     return std::vector<align::TracedAlignment>(batch.size());
                   });
  core::AlignerOptions traced_opts;
  traced_opts.traceback = true;
  traced_opts.cpu_threads = 1;
  core::Aligner traced_aligner(traced_opts);
  const int reps = quick ? 3 : 5;
  core::AlignOutput cohort;
  double cohort_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    core::AlignOutput out = traced_aligner.align(windows);
    cohort_ms = r == 0 ? out.traceback_ms : std::min(cohort_ms, out.traceback_ms);
    cohort = std::move(out);
  }
  std::vector<align::TracebackResult> per_pair(windows.size());
  const double per_pair_ms = best_ms(reps, [&] {
    for (std::size_t p = 0; p < windows.size(); ++p) {
      per_pair[p] = align::banded_traceback(windows.refs[p], windows.queries[p],
                                            traced_opts.scoring);
    }
  });
  std::size_t same = 0;
  std::size_t per_pair_cells = 0;
  for (std::size_t p = 0; p < windows.size(); ++p) {
    same += cohort.traced[p] == per_pair[p].traced;
    if (cohort.results[p].score > 0) per_pair_cells += per_pair[p].stats.cells();
  }
  const bool avx2 = std::string(align::simd::isa_name()) == "avx2";
  const double window_speedup = per_pair_ms / cohort_ms;
  const double n_windows = static_cast<double>(std::max<std::size_t>(1, windows.size()));
  std::size_t ref_bases = 0;
  std::size_t read_bases = 0;
  for (std::size_t p = 0; p < windows.size(); ++p) {
    ref_bases += windows.refs[p].size();
    read_bases += windows.queries[p].size();
  }
  std::printf(
      "Window traceback (%zu windows, mean %.0f x %.0f bp, isa=%s, 1 thread): per-pair "
      "banded_traceback %.2f ms (%.1f k cells/pair), SIMD cohort engine %.2f ms "
      "(%.1f k cells/pair), %.2fx\n",
      windows.size(), static_cast<double>(ref_bases) / n_windows,
      static_cast<double>(read_bases) / n_windows, align::simd::isa_name(), per_pair_ms,
      static_cast<double>(per_pair_cells) / 1e3 / n_windows, cohort_ms,
      static_cast<double>(cohort.traceback_cells) / 1e3 / n_windows, window_speedup);
  ok &= check(windows.size() > 0, "the window workload mapped reads");
  ok &= check(same == windows.size(),
              "SIMD cohort traces identical to per-pair banded_traceback");
  if (avx2) {
    ok &= check(window_speedup >= 4.0, ">= 4x lower window traceback_ms with AVX2 kernels");
  }
  if (std::FILE* f = std::fopen("BENCH_traceback.json", "w")) {
    std::fprintf(f,
                 "{\"bench\":\"ablation_traceback\",\"workload\":\"illumina_windows\","
                 "\"windows\":%zu,\"isa\":\"%s\",\"threads\":1,"
                 "\"per_pair_traceback_ms\":%.3f,\"cohort_traceback_ms\":%.3f,"
                 "\"speedup\":%.3f,\"per_pair_cells\":%zu,\"cohort_cells\":%zu,"
                 "\"identical\":%s,\"sam_legacy_ms\":%.3f,\"sam_batched_ms\":%.3f}\n",
                 windows.size(), align::simd::isa_name(), per_pair_ms, cohort_ms,
                 window_speedup, per_pair_cells, cohort.traceback_cells,
                 same == windows.size() ? "true" : "false", legacy_ms, batched_ms);
    std::fclose(f);
    std::printf("wrote BENCH_traceback.json\n");
  }

  return ok ? 0 : 1;
}
