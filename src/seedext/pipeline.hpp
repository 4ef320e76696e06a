// End-to-end seed-and-extend read mapping — the BWA-MEM stand-in that feeds
// the extension kernels (paper Sec. V-D). Seeding (k-mer or FM-index) →
// chaining → extension-job extraction → local-alignment extension → mapping.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "align/alignment_result.hpp"
#include "align/scoring.hpp"
#include "core/options.hpp"
#include "seedext/chain_batch.hpp"
#include "seedext/chain_engine.hpp"
#include "seedext/chaining.hpp"
#include "seedext/extension_jobs.hpp"
#include "seedext/fm_index.hpp"
#include "seedext/kmer_index.hpp"
#include "seedext/seeding.hpp"
#include "seedext/shared_index.hpp"
#include "seq/sequence.hpp"

namespace saloba::seq {
class SequenceChunkReader;  // seq/chunk_reader.hpp
class SamWriter;            // seq/sam.hpp
}  // namespace saloba::seq

namespace saloba::core {
class AlignService;  // core/align_service.hpp
}  // namespace saloba::core

namespace saloba::seedext {

struct MapperParams {
  int k = 16;
  bool use_fm_seeding = false;  ///< k-mer index by default; FM-index optional

  // --- Shared-index routing (seedext::SharedIndex) -------------------------
  /// Non-empty: the reference index is acquired through the shared-index
  /// registry as an mmap of this file (built and saved on first use,
  /// validate-and-adopt afterwards) instead of rebuilt in memory. Every
  /// mapper/tenant naming the same path and k aliases one mapping.
  /// With index_shards > 1 this becomes the per-shard path prefix
  /// (IndexShardingOptions::path_prefix).
  std::string index_path;
  /// > 1: k-mer seeding goes through a reference-sharded index — the genome
  /// is cut into this many overlapping windows with one sub-index each,
  /// placed across lanes by weighted LPT. Seeds (and therefore mappings and
  /// SAM bytes) are bit-identical to the monolithic index. K-mer seeding
  /// only; incompatible with use_fm_seeding.
  std::size_t index_shards = 1;
  /// Heterogeneous lane weights for index-shard placement (empty = 1 lane).
  std::vector<double> index_lane_weights;

  SeedingParams seeding;
  ChainingParams chaining;
  JobParams jobs;
  align::ScoringScheme scoring;
};

struct ReadMapping {
  bool mapped = false;
  std::size_t ref_pos = 0;      ///< inferred 0-based genome start of the read
  bool reverse_strand = false;
  align::Score score = 0;       ///< seed matches + extension scores
  /// Traced alignment of the oriented read against its mapped genome window
  /// (window coordinates; seedext::mapped_window recovers the genome
  /// offset), filled by the traceback-enabled mapping paths so
  /// to_sam_record can emit the CIGAR without re-aligning anything.
  align::TracedAlignment traced;
  bool has_traceback = false;  ///< `traced` is populated
};

/// Aggregates of one map_stream run.
struct StreamMapStats {
  std::size_t reads = 0;
  std::size_t mapped = 0;
  std::size_t chunks = 0;
  double wall_ms = 0.0;
  /// Chaining-stage time summed over chunks (batched phase makespan when a
  /// BatchChainer is injected, in-process engine wall time otherwise); kept
  /// out of wall_ms accounting so the stream reports the phase split the
  /// same way AlignOutput splits score/traceback.
  double chaining_ms = 0.0;
  std::size_t chain_anchors = 0;  ///< anchors chained over the whole stream
  std::size_t chain_updates = 0;  ///< push + settlement candidates evaluated
};

/// What the batched chaining stage of one map_batch call produced/spent.
struct ChainStageStats {
  double chaining_ms = 0.0;
  std::size_t tasks = 0;    ///< strand tasks chained (2 per non-empty read)
  std::size_t anchors = 0;  ///< seeds across those tasks
  std::size_t updates = 0;  ///< push + settlement candidates evaluated
};

/// A batch extension engine: aligns every (query, reference) pair of a
/// PairBatch, output order matching input order. core::Aligner's
/// batch_extender() adapts the scheduler-backed public path (CPU or any
/// simulated kernel, sharded across devices) to this signature, so the
/// Sec. V-D pipeline exercises the same code as the benches.
using BatchExtender =
    std::function<std::vector<align::AlignmentResult>(const seq::PairBatch&)>;

/// A batched two-phase engine: score pass + traceback phase for every pair
/// of a PairBatch, one TracedAlignment per pair in input order.
/// core::Aligner::traced_extender() (AlignerOptions::traceback = true)
/// adapts the scheduler-backed public path to this signature; a null
/// TracedBatchExtender makes the mapper fall back to the in-process SIMD
/// score pass and cohort traceback (seedext::trace_windows).
using TracedBatchExtender =
    std::function<std::vector<align::TracedAlignment>(const seq::PairBatch&)>;

/// What a batched chaining engine returns: one chain list per ChainBatch
/// task id, plus the phase's time/counter accounting.
struct ChainStageResult {
  std::vector<std::vector<Chain>> chains;
  double chaining_ms = 0.0;
  std::size_t anchors = 0;
  std::size_t updates = 0;  ///< push + settlement candidates evaluated
};

/// A batched chaining engine: chains every task of a ChainBatch.
/// core::Aligner::batch_chainer() adapts the scheduler-orchestrated phase
/// (BatchScheduler::chain — weighted-LPT task shards across backend lanes,
/// the SIMD forward-only kernel per task) to this signature; a null chainer
/// makes the mapper run the in-process engine host-parallel. Either path is
/// bit-identical to sequential chain_seeds per task.
using BatchChainer = std::function<ChainStageResult(const ChainBatch&)>;

class ReadMapper {
 public:
  ReadMapper(std::vector<seq::BaseCode> genome, MapperParams params);
  ~ReadMapper();
  ReadMapper(ReadMapper&&) noexcept;

  const std::vector<seq::BaseCode>& genome() const { return genome_; }
  const MapperParams& params() const { return params_; }

  /// Maps one read (tries both strands, extends the best chains on the CPU).
  ReadMapping map(std::span<const seq::BaseCode> read) const;

  /// Host-parallel batch mapping; output order matches input order.
  std::vector<ReadMapping> map_batch(
      std::span<const std::vector<seq::BaseCode>> reads) const;

  /// Routes the chaining stage of every batched mapping call through
  /// `chainer` (e.g. core::Aligner::batch_chainer()) instead of the
  /// in-process engine. Mappings are unchanged — every BatchChainer is
  /// bit-identical to the sequential oracle — only the execution (lanes,
  /// shards, simulated-device accounting) moves. Null restores the default.
  void set_batch_chainer(BatchChainer chainer) { chainer_ = std::move(chainer); }

  /// Batch mapping with the extension stage routed through `extend`: all
  /// reads' extension jobs are gathered into one kernel-sized PairBatch and
  /// aligned in a single call (the paper's batched seed-extension shape)
  /// instead of per-job CPU alignments. Both strands of every read are
  /// chained first as one ChainBatch through the batched chaining stage
  /// (set_batch_chainer, or the in-process SIMD engine); `chain_stats`, when
  /// non-null, receives that stage's time and counters. Mappings are
  /// identical to map_batch(reads) for any extender that matches the CPU
  /// reference.
  std::vector<ReadMapping> map_batch(std::span<const std::vector<seq::BaseCode>> reads,
                                     const BatchExtender& extend,
                                     ChainStageStats* chain_stats = nullptr) const;

  /// Batched mapping with the traceback phase attached: after the extension
  /// stage, every mapped read's (oriented read, genome window) pair is
  /// gathered into one batch and traced through `trace` (null = the
  /// in-process seedext::trace_windows), so each ReadMapping carries the
  /// CIGAR SAM emission needs — no per-read DP anywhere downstream.
  std::vector<ReadMapping> map_batch(std::span<const std::vector<seq::BaseCode>> reads,
                                     const BatchExtender& extend,
                                     const TracedBatchExtender& trace,
                                     ChainStageStats* chain_stats = nullptr) const;

  /// Batched mapping with the extension stage (and, when the service's
  /// AlignerOptions enable traceback, the traceback phase) routed through
  /// one session of a multi-tenant core::AlignService: this mapper becomes
  /// one tenant among many sharing the service's continuously batched
  /// backend, with the given per-session QoS knobs. Mappings (and stored
  /// traces) are identical to map_batch over the same reads with the
  /// equivalent core::Aligner extenders — the service is bit-identical per
  /// pair regardless of what other tenants are doing.
  std::vector<ReadMapping> map_session(std::span<const std::vector<seq::BaseCode>> reads,
                                       core::AlignService& service,
                                       core::SessionOptions session = {},
                                       ChainStageStats* chain_stats = nullptr) const;

  /// The traceback stage of the batched path, exposed for callers that
  /// already hold mappings: fills `traced`/`has_traceback` of every mapped
  /// entry from one batched trace run. `reads` and `mappings` must be the
  /// map_batch inputs/outputs, index-aligned.
  void attach_tracebacks(std::span<const std::vector<seq::BaseCode>> reads,
                         std::span<ReadMapping> mappings,
                         const TracedBatchExtender& trace) const;

  /// Streaming Sec. V-D pipeline: a reader thread pulls SequenceChunks from
  /// `reader` through a bounded queue (capacity `queue_capacity` chunks of
  /// backpressure) while the calling thread maps each chunk — seeding and
  /// chaining host-parallel, extensions batched through `extend` — and
  /// hands every (read, mapping) to `sink` in input order. Never more than
  /// queue_capacity + 2 chunks of reads are resident (the queue, plus the
  /// chunk in the producer's hands and the one being mapped). Mappings are
  /// identical to map_batch over the same reads. Exceptions from the
  /// reader, the extender, or the sink shut the pipeline down cleanly and
  /// rethrow here.
  StreamMapStats map_stream(
      seq::SequenceChunkReader& reader, const BatchExtender& extend,
      const std::function<void(const seq::Sequence&, const ReadMapping&)>& sink,
      std::size_t queue_capacity = 4) const;

  /// Streaming with the traceback phase: each chunk's mappings arrive at
  /// `sink` with `traced` populated (map_batch(reads, extend, trace) per
  /// chunk), still in input order.
  StreamMapStats map_stream(
      seq::SequenceChunkReader& reader, const BatchExtender& extend,
      const TracedBatchExtender& trace,
      const std::function<void(const seq::Sequence&, const ReadMapping&)>& sink,
      std::size_t queue_capacity = 4) const;

  /// map_stream writing SAM records incrementally (seedext::to_sam_record)
  /// as each chunk completes — constant-memory FASTQ-to-SAM.
  StreamMapStats map_stream(seq::SequenceChunkReader& reader, const BatchExtender& extend,
                            seq::SamWriter& writer,
                            const std::string& reference_name = "synthetic",
                            std::size_t queue_capacity = 4) const;

  /// Streaming FASTQ-to-SAM with batched CIGARs: the traceback phase runs
  /// per chunk through `trace` and to_sam_record consumes the stored
  /// traces directly.
  StreamMapStats map_stream(seq::SequenceChunkReader& reader, const BatchExtender& extend,
                            const TracedBatchExtender& trace, seq::SamWriter& writer,
                            const std::string& reference_name = "synthetic",
                            std::size_t queue_capacity = 4) const;

  /// Extracts every extension job the given reads generate (best strand,
  /// all surviving chains) — the kernel workload of Fig. 2 / Fig. 8.
  std::vector<ExtensionJob> collect_jobs(
      std::span<const std::vector<seq::BaseCode>> reads) const;

  /// Seeds for one read on its forward strand (exposed for tests/examples).
  std::vector<Seed> seeds_of(std::span<const seq::BaseCode> read) const;

 private:
  struct StrandResult {
    std::vector<Chain> chains;
    std::int64_t coverage = 0;  ///< best chain score (strand selector)
  };
  StrandResult analyze(std::span<const seq::BaseCode> read) const;

  /// Everything map() derives from a read before extension: strand choice,
  /// the best chain's anchor and seed score, and its extension jobs. Both
  /// the per-job CPU path (map) and the batched path (map_batch + extender)
  /// run prepare → extend → finalize, so they agree by construction.
  struct PreparedRead {
    bool has_chain = false;
    bool use_rev = false;
    align::Score seed_score = 0;
    Seed anchor;
    std::vector<ExtensionJob> jobs;
  };
  PreparedRead prepare(std::span<const seq::BaseCode> read) const;
  /// The strand-choice + job-extraction tail of prepare, over already
  /// computed per-strand chains — shared by the per-read path and the
  /// batched chaining stage so the two agree by construction.
  PreparedRead prepare_from_chains(std::span<const seq::BaseCode> read,
                                   std::span<const seq::BaseCode> rc,
                                   const std::vector<Chain>& fwd,
                                   const std::vector<Chain>& rev) const;
  static ReadMapping finalize(const PreparedRead& pre,
                              std::span<const align::AlignmentResult> job_results);

  std::vector<seq::BaseCode> genome_;
  MapperParams params_;
  /// Refcounted handle from the shared-index registry (in-memory or mmap):
  /// mappers over the same reference share one index instead of rebuilding.
  std::shared_ptr<const SharedIndex> index_;
  /// The reference-sharded seeding path (params_.index_shards > 1).
  std::unique_ptr<ShardedKmerIndex> sharded_index_;
  BatchChainer chainer_;  ///< null = in-process chain engine
};

}  // namespace saloba::seedext
