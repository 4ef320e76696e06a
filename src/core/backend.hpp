// The execution-backend layer between the Aligner facade / BatchScheduler
// and the alignment engines. A backend turns one (sub-)batch into results
// plus timing on one of its lanes; the scheduler decides which pairs go to
// which engine (long-read routing) and lane, and merges the outputs (see
// core/scheduler.hpp for the layering diagram).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "align/alignment_result.hpp"
#include "core/options.hpp"
#include "gpusim/device.hpp"
#include "kernels/kernel_iface.hpp"
#include "seedext/chain_batch.hpp"
#include "seedext/chain_engine.hpp"
#include "seq/sequence.hpp"

namespace saloba::core {

/// What one backend run on one lane produced.
struct BackendOutput {
  std::vector<align::AlignmentResult> results;
  /// Wall-clock milliseconds for the host backend; simulated kernel
  /// milliseconds for the simulated backend.
  double time_ms = 0.0;
  /// DP cells actually computed: in-band cells for banded pairs, minus any
  /// rows a CPU-side zdrop pruned. 0 = the backend did not count (the
  /// scheduler then falls back to the batch's nominal banded cell count).
  std::size_t cells = 0;
  /// Simulated backend only.
  std::optional<gpusim::KernelStats> kernel_stats;
  std::optional<gpusim::TimeBreakdown> time_breakdown;
};

/// What one traceback-phase run on one lane produced (two-phase alignment,
/// AlignerOptions::traceback).
struct TracebackOutput {
  /// One traced alignment per batch pair, input order. Pairs whose score
  /// pass found nothing (score 0) get the empty TracedAlignment.
  std::vector<align::TracedAlignment> traced;
  /// Wall-clock milliseconds for the host backend; modeled traceback-phase
  /// milliseconds for the simulated backend.
  double time_ms = 0.0;
  /// Engine cells spent on the phase: per pair, its endpoint rectangle's
  /// in-band cells on the cohort engine, forward sweep + block replay on
  /// align::banded_traceback (align::TracebackStats).
  std::size_t cells = 0;
  /// Simulated backend only: the phase's counters and modeled time
  /// (WarpCounters::traceback_cells/traceback_bytes,
  /// TimeBreakdown::traceback_ms).
  std::optional<gpusim::KernelStats> kernel_stats;
  std::optional<gpusim::TimeBreakdown> time_breakdown;
};

/// What one long-read run (AlignBackend::run_longread) on one lane produced:
/// the routed pairs' score pass and, for a traced run, their traceback
/// phase, booked like the classic path's two waves so AlignOutput reports
/// both engines in one shape. `traceback` stays empty for untraced runs.
struct LongReadOutput {
  BackendOutput score;
  TracebackOutput traceback;
};

/// What one chaining-phase run on one lane produced (the batched
/// forward-only chaining wave, core::BatchScheduler::chain).
struct ChainingOutput {
  /// Indexed by *batch* task id; only this run's shard tasks are filled
  /// (others stay empty vectors), so the scheduler can merge shard outputs
  /// without remapping.
  std::vector<std::vector<seedext::Chain>> chains;
  /// Wall-clock milliseconds for host backends; modeled chaining-phase
  /// milliseconds for the simulated backend.
  double time_ms = 0.0;
  /// Push + settlement candidates the engine evaluated (structural count,
  /// deterministic across ISAs/threads) — the phase's work measure.
  std::size_t updates = 0;
  std::size_t anchors = 0;  ///< anchors across this run's tasks
  seedext::ChainEngineStats engine_stats;
  /// Simulated backend only: modeled counters and time
  /// (WarpCounters::chaining_updates/chaining_bytes,
  /// TimeBreakdown::chaining_ms).
  std::optional<gpusim::KernelStats> kernel_stats;
  std::optional<gpusim::TimeBreakdown> time_breakdown;
};

class AlignBackend {
 public:
  virtual ~AlignBackend() = default;

  virtual const std::string& name() const = 0;

  /// Independent execution lanes (simulated devices). The scheduler
  /// serializes runs on one lane; distinct lanes may run concurrently.
  virtual int lanes() const = 0;

  /// Relative throughput hint for `lane` — the scheduler's cost input for
  /// heterogeneous lanes (weighted LPT). Only ratios between lanes matter;
  /// homogeneous backends keep the default 1.0 everywhere, which makes the
  /// scheduler fall back to the classic unweighted packing bit-for-bit.
  virtual double lane_weight(int /*lane*/) const { return 1.0; }

  /// Runs the batch on `lane` (in [0, lanes())). May throw
  /// kernels::KernelUnsupportedError or gpusim::DeviceOomError, faithfully
  /// to the modelled library.
  virtual BackendOutput run(const seq::PairBatch& batch, int lane) = 0;

  /// Traceback phase for a batch whose score pass produced `results`
  /// (size == batch.size()): one TracedAlignment per pair through the SIMD
  /// cohort engine (align::simd::traceback_batch, which traces each pair
  /// over its own endpoint rectangle and keeps long, high-scoring or
  /// oversized pairs on align::banded_traceback), honoring the batch's
  /// per-pair bands. Pairs with a zero score-pass result are skipped (their
  /// trace is empty by construction). Traces are bit-identical to
  /// banded_traceback's for any score pass that is bit-identical to the CPU
  /// reference.
  virtual TracebackOutput run_traceback(const seq::PairBatch& batch,
                                        std::span<const align::AlignmentResult> results,
                                        int lane) = 0;

  /// Long-read phase for pairs the scheduler routed (core::LongReadPolicy):
  /// the X-drop wavefront engine with threshold `xdrop` on every pair of
  /// `batch`, ignoring band and zdrop. A `traced` run calls
  /// align::xdrop_wavefront_align once per pair and takes its endpoint as
  /// the score result, so the forward sweep never runs twice; pairs scoring
  /// 0 get the empty TracedAlignment, as in run_traceback.
  virtual LongReadOutput run_longread(const seq::PairBatch& batch, align::Score xdrop,
                                      bool traced, int lane) = 0;

  /// Chaining phase for shard `tasks` of a ChainBatch: the forward-only
  /// fixed-lookahead engine (seedext::chain_tasks_run) on `lane`, results
  /// bit-identical to the sequential seedext::chain_seeds oracle for every
  /// task regardless of backend, lane, or ISA.
  virtual ChainingOutput run_chaining(const seedext::ChainBatch& batch,
                                      std::span<const std::size_t> tasks, int lane) = 0;
};

/// All of a backend's lane weights, in lane order (size == lanes()).
std::vector<double> lane_weights(const AlignBackend& backend);

/// The host backend: `lanes` identical lanes, each running the
/// inter-sequence SIMD batch engine (align::simd::align_batch; the scalar
/// align::align_batch is its bit-identical oracle and not a lane engine).
/// Lanes split `threads_total` OpenMP threads evenly (threads_total 0 =
/// hardware concurrency) so overlapping shard runs never oversubscribe the
/// machine and wall-clock timing stays honest; a single lane keeps the
/// default team unless `threads_total` caps it. Lanes are uniform, so they
/// keep the base lane_weight of 1.0. Named "simd".
class HostBackend final : public AlignBackend {
 public:
  /// `zdrop > 0` applies z-drop row pruning to every pair on every lane
  /// (the rule of align::BandedParams::zdrop); per-pair bands come from the
  /// batch itself (the scheduler materializes AlignerOptions band knobs
  /// into it).
  HostBackend(align::ScoringScheme scoring, int lanes, int threads_total = 0,
              align::Score zdrop = 0);

  const std::string& name() const override { return name_; }
  int lanes() const override { return lanes_; }
  /// OpenMP thread cap per lane run; 0 = the default team (single lane).
  int threads_per_lane() const { return threads_per_lane_; }
  BackendOutput run(const seq::PairBatch& batch, int lane) override;
  /// Engine params mirror the score pass (per-pair band + this backend's
  /// zdrop), so traced endpoints are bit-identical to run()'s results.
  TracebackOutput run_traceback(const seq::PairBatch& batch,
                                std::span<const align::AlignmentResult> results,
                                int lane) override;
  /// The wavefront engine on this lane's thread share, timed on the wall
  /// clock. A traced run's one wall time is split between the score and
  /// traceback halves by their engine cells (forward sweep vs traceback
  /// replay).
  LongReadOutput run_longread(const seq::PairBatch& batch, align::Score xdrop, bool traced,
                              int lane) override;
  /// Chaining's scalar/vector split is a per-task ISA dispatch inside
  /// chain_tasks_run, not a lane property.
  ChainingOutput run_chaining(const seedext::ChainBatch& batch,
                              std::span<const std::size_t> tasks, int lane) override;

 private:
  align::ScoringScheme scoring_;
  int lanes_ = 1;
  int threads_per_lane_ = 0;
  align::Score zdrop_ = 0;
  std::string name_ = "simd";
};

/// A reproduced GPU kernel on N simulated devices. Each lane owns a
/// gpusim::Device; the kernel object is stateless per run and shared.
/// `options.device` may list several presets ("gtx1650,rtx3090") for a
/// heterogeneous backend: one lane per preset, each lane weighted by the
/// cost model's peak issue rate relative to the slowest preset so the
/// scheduler can partition work cost-aware.
class SimulatedGpuBackend final : public AlignBackend {
 public:
  /// Resolves `options.kernel` and `options.device` through the registries;
  /// throws std::invalid_argument (listing valid names) on unknown names or
  /// a malformed preset list.
  explicit SimulatedGpuBackend(const AlignerOptions& options);

  const std::string& name() const override { return name_; }
  int lanes() const override { return static_cast<int>(devices_.size()); }
  /// gpusim::peak_issue_rate of the lane's device / the slowest lane's
  /// (>= 1.0; uniform presets yield exactly 1.0 everywhere).
  double lane_weight(int lane) const override;
  BackendOutput run(const seq::PairBatch& batch, int lane) override;
  /// Functionally runs the engine on the host (kernels apply no zdrop, so
  /// endpoints match the kernels bit-for-bit), then models the phase's time
  /// and memory traffic on the lane's device
  /// (gpusim::estimate_traceback_time; counters land in
  /// WarpCounters::traceback_cells/traceback_bytes).
  TracebackOutput run_traceback(const seq::PairBatch& batch,
                                std::span<const align::AlignmentResult> results,
                                int lane) override;
  /// Functionally runs the wavefront engine on the host (bit-identical to
  /// every other backend), then models each half on the lane's device
  /// (gpusim::estimate_xdrop_time; counters land in
  /// WarpCounters::xdrop_cells/xdrop_bytes).
  LongReadOutput run_longread(const seq::PairBatch& batch, align::Score xdrop, bool traced,
                              int lane) override;
  /// Functionally runs the forward-only engine on the host (bit-identical to
  /// every other backend), then models the phase's time and traffic on the
  /// lane's device (gpusim::estimate_chaining_time; counters land in
  /// WarpCounters::chaining_updates/chaining_bytes).
  ChainingOutput run_chaining(const seedext::ChainBatch& batch,
                              std::span<const std::size_t> tasks, int lane) override;

  gpusim::Device& device(int lane) { return *devices_[static_cast<std::size_t>(lane)]; }

 private:
  align::ScoringScheme scoring_;
  kernels::KernelPtr kernel_;
  std::vector<std::unique_ptr<gpusim::Device>> devices_;
  std::vector<double> weights_;
  std::string name_;
};

/// Builds the backend `options` asks for. Under Backend::kCpu it is a
/// HostBackend of `cpu_lanes` lanes sharing `cpu_threads` with `zdrop`;
/// `device` is not read there. Throws std::invalid_argument for
/// cpu_lanes < 1.
std::unique_ptr<AlignBackend> make_backend(const AlignerOptions& options);

/// One backend per concurrent worker (StreamAligner / AlignService workers),
/// so no lane is ever shared across threads: `workers` == 1 is
/// make_backend(options); above that every replica is built from the same
/// options, host replicas splitting cpu_threads (0 = hardware concurrency)
/// evenly between them — the lanes' no-oversubscription rule one level up.
std::vector<std::unique_ptr<AlignBackend>> make_worker_backends(const AlignerOptions& options,
                                                                std::size_t workers);

}  // namespace saloba::core
