#include "core/schedule_cache.hpp"

#include "core/autotune.hpp"
#include "core/workload.hpp"

namespace saloba::core {

bool same_schedule(const SchedulerOptions& a, const SchedulerOptions& b) {
  return a.max_shard_pairs == b.max_shard_pairs && a.policy == b.policy &&
         a.threads == b.threads && a.band == b.band && a.longread == b.longread &&
         a.traceback == b.traceback;
}

void materialize_chunk_bands(seq::PairBatch& chunk, const AlignerOptions& options,
                             const std::optional<SchedulerOptions>& override_schedule) {
  materialize_bands(chunk, override_schedule && override_schedule->band.banded()
                               ? override_schedule->band
                               : options.band_policy());
}

SchedulerOptions resolve_chunk_schedule(const seq::PairBatch& chunk,
                                        const AlignerOptions& options,
                                        const std::optional<SchedulerOptions>& override_schedule,
                                        const AlignBackend& backend) {
  SchedulerOptions wanted = override_schedule
                                ? *override_schedule
                                : recommend_scheduler(stats_of(chunk), lane_weights(backend));
  // Two-phase runs: AlignerOptions::traceback applies unless an explicit
  // override already turned the phase on itself.
  if (!wanted.traceback && options.traceback) wanted.traceback = true;
  // Long-read routing follows the Aligner's policy unless an explicit
  // override already set one: the scheduler is the only place that routes,
  // so this is how streamed and service batches reach the X-drop engine.
  if (!wanted.longread.enabled() && options.longread_policy().enabled()) {
    wanted.longread = options.longread_policy();
  }
  return wanted;
}

}  // namespace saloba::core
