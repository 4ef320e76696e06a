// Per-chunk scheduling plumbing shared by the single-stream pipeline
// (core::StreamAligner workers) and the multi-tenant service batcher
// (core::AlignService): the band-materialization override rule, the
// schedule-resolution rule (explicit override > per-chunk autotune), and a
// small BatchScheduler cache so chunks whose autotuned options oscillate
// between a handful of configurations never rebuild a scheduler (and its
// thread pool). Extracted from stream_aligner.cpp so the two consumers
// cannot drift apart.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/scheduler.hpp"

namespace saloba::core {

/// True when two SchedulerOptions build interchangeable BatchSchedulers for
/// already-band-materialized batches (every field that shapes execution is
/// compared; max_shard_chain_tasks is irrelevant to the extension phases).
bool same_schedule(const SchedulerOptions& a, const SchedulerOptions& b);

/// The per-chunk band rule: an explicit schedule override may replace the
/// AlignerOptions band policy only by carrying a banded policy of its own;
/// chunks that already have a band channel (a banded source batch) win over
/// either, as everywhere else. Materializes in place.
void materialize_chunk_bands(seq::PairBatch& chunk, const AlignerOptions& options,
                             const std::optional<SchedulerOptions>& override_schedule);

/// The per-chunk schedule rule: `override_schedule` wins outright; otherwise
/// autotune (core::recommend_scheduler over the chunk's stats and the
/// backend's lane weights). The
/// traceback phase and the long-read routing policy from AlignerOptions
/// apply unless the override already enabled its own — the same override
/// discipline as the band policy.
SchedulerOptions resolve_chunk_schedule(const seq::PairBatch& chunk,
                                        const AlignerOptions& options,
                                        const std::optional<SchedulerOptions>& override_schedule,
                                        const AlignBackend& backend);

/// A small owning cache of BatchSchedulers keyed by their options. Not
/// thread-safe: each worker thread owns one (schedulers spawn thread pools,
/// which must never be shared across consumer threads).
class ScheduleCache {
 public:
  /// `backend` must outlive the cache; every cached scheduler runs on it.
  explicit ScheduleCache(AlignBackend* backend) : backend_(backend) {}

  /// The cached scheduler for `wanted`, building (and keeping) one on miss.
  BatchScheduler& scheduler(const SchedulerOptions& wanted) {
    for (auto& [opts, sched] : cache_) {
      if (same_schedule(wanted, opts)) return *sched;
    }
    cache_.emplace_back(wanted, std::make_unique<BatchScheduler>(backend_, wanted));
    return *cache_.back().second;
  }

  std::size_t size() const { return cache_.size(); }

 private:
  AlignBackend* backend_;
  std::vector<std::pair<SchedulerOptions, std::unique_ptr<BatchScheduler>>> cache_;
};

}  // namespace saloba::core
