// Streaming alignment: a bounded producer/consumer pipeline in front of the
// existing BatchScheduler, so a workload never has to be fully resident.
//
//   PairChunkSource ──reader thread──▶ BoundedQueue ──align worker(s)──▶
//   BoundedQueue ──merger (caller thread)──▶ ChunkSink, in input order
//
// Backpressure is a single in-flight-chunk budget (`queue_capacity`): the
// reader takes a ticket before parsing each chunk and the merger returns it
// after emitting, so at most `queue_capacity` chunks — hence at most
// chunk_pairs × queue_capacity pairs — are resident anywhere in the
// pipeline at once. Each chunk runs through a BatchScheduler over the
// configured AlignBackend (CPU or simulated devices), exactly the one-shot
// Aligner::align path, so a streamed run is bit-identical to the resident
// run on the same pairs: same results, same order. Closing any stage early
// (error, sink exception, early shutdown) unblocks every other stage and
// all threads join cleanly.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/chunk_source.hpp"
#include "core/options.hpp"
#include "core/scheduler.hpp"
#include "seq/chunk_reader.hpp"
#include "seq/sequence.hpp"

namespace saloba::core {

struct StreamOptions {
  /// Pairs per chunk for sources this class builds itself (align_streamed).
  std::size_t chunk_pairs = 2048;
  /// In-flight chunk budget across the whole pipeline (reader + workers +
  /// merger); peak resident pairs <= chunk_pairs * queue_capacity.
  std::size_t queue_capacity = 4;
  /// Concurrent scheduler consumers. Each worker owns its own backend
  /// (core::make_worker_backends, built once at construction) so lanes are
  /// never shared across threads and host replicas split the thread budget;
  /// results stay bit-identical, the merger restores input order.
  std::size_t align_threads = 1;
  /// Explicit scheduling override; unset = SchedulerOptions derived per
  /// chunk by core::recommend_scheduler.
  std::optional<SchedulerOptions> schedule;
};

/// Running aggregates over the whole stream.
struct StreamStats {
  std::size_t chunks = 0;
  std::size_t pairs = 0;
  std::size_t cells = 0;
  std::size_t shards = 0;  ///< scheduler shards summed over chunks
  /// Aligner time serialized across chunks: the sum of per-chunk makespans
  /// (wall-clock for the CPU backend, simulated ms for simulated devices).
  double align_ms = 0.0;
  double gcups = 0.0;  ///< cells / align_ms (0 when nothing aligned)
  /// Traceback-phase time summed over chunks (two-phase runs only); kept
  /// out of align_ms so the stream reports the same phase split as
  /// AlignOutput.
  double traceback_ms = 0.0;
  std::size_t traceback_cells = 0;  ///< engine cells over the whole stream
  /// Host wall-clock for the whole stream, ingest to last emit — the
  /// pipelined figure benches compare against resident runs.
  double wall_ms = 0.0;
  /// Per-lane busy totals summed over chunks; size == backend lanes.
  std::vector<double> lane_ms;
  std::size_t peak_resident_pairs = 0;   ///< max pairs in flight at once
  std::size_t peak_resident_chunks = 0;  ///< max chunks in flight (<= queue_capacity)
};

/// Ordered consumer: called once per chunk, in input order, on the thread
/// that called run(). `first_pair` is the stream index of results[0].
using ChunkSink = std::function<void(std::size_t chunk_index, std::size_t first_pair,
                                     AlignOutput&& output)>;

class StreamAligner {
 public:
  /// Builds the workers' backends immediately (throws std::invalid_argument
  /// on unknown kernel/device names, like Aligner).
  explicit StreamAligner(AlignerOptions options, StreamOptions stream = {});
  ~StreamAligner();
  StreamAligner(StreamAligner&&) noexcept;
  StreamAligner& operator=(StreamAligner&&) noexcept;

  const AlignerOptions& options() const { return options_; }
  const StreamOptions& stream_options() const { return stream_; }
  /// The first worker's backend; every worker's is built from the same
  /// options (core::make_worker_backends), so it stands for them all.
  const AlignBackend& backend() const { return *backends_.front(); }

  /// Pumps the source through the pipeline; `sink` (may be null) receives
  /// every chunk's AlignOutput in input order. The first exception from any
  /// stage — source, backend, or sink — shuts the pipeline down, joins all
  /// threads, and is rethrown here.
  StreamStats run(PairChunkSource& source, const ChunkSink& sink);

  /// Streams a resident batch and reassembles one AlignOutput with results
  /// in input order — bit-identical to Aligner::align on the same batch
  /// (same results, same order; time_ms is the chunk-serialized align_ms).
  AlignOutput align_streamed(const seq::PairBatch& batch);

 private:
  AlignerOptions options_;
  StreamOptions stream_;
  std::vector<std::unique_ptr<AlignBackend>> backends_;  ///< one per align worker
};

}  // namespace saloba::core
