#include "core/backend.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "align/simd_engine.hpp"
#include "align/xdrop_wavefront.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device_registry.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace saloba::core {
namespace {

/// Modeled DRAM traffic of a wavefront run: every cell touches the rolling
/// H/E/F diagonal slots (one write plus prior-diagonal reads, 16 B of int32
/// traffic) and both sequences stream once.
std::uint64_t xdrop_traffic_bytes(std::uint64_t cells, std::size_t bases) {
  return cells * 16 + static_cast<std::uint64_t>(bases);
}

/// The long-read body every backend's run_longread shares: one X-drop
/// wavefront call per pair, host-parallel. A traced run calls
/// xdrop_wavefront_align and takes its endpoint as the score result, so the
/// forward sweep runs once. The counters keep the classic path's two-wave
/// shape: the score half counts every pair's forward cells, the traceback
/// half forward plus traceback cells of each pair scoring > 0. Time and
/// kernel stats are left to the caller.
struct WavefrontPass {
  LongReadOutput out;
  std::uint64_t score_bytes = 0;
  std::uint64_t traceback_bytes = 0;
  /// Traceback cells alone (what tracing added to the forward sweeps).
  std::uint64_t replay_cells = 0;
};

WavefrontPass wavefront_pass(const seq::PairBatch& batch, const align::ScoringScheme& scoring,
                             align::Score xdrop, bool traced, int threads) {
  WavefrontPass pass;
  pass.out.score.results.resize(batch.size());
  if (traced) pass.out.traceback.traced.resize(batch.size());
  std::vector<align::WavefrontStats> stats(batch.size());
  util::parallel_for_indexed(
      batch.size(),
      [&](std::size_t i) {
        const align::XDropParams params{xdrop};
        if (!traced) {
          pass.out.score.results[i] = align::xdrop_wavefront_score(
              batch.refs[i], batch.queries[i], scoring, params, &stats[i]);
          return;
        }
        align::TracedAlignment t = align::xdrop_wavefront_align(
            batch.refs[i], batch.queries[i], scoring, params, &stats[i]);
        pass.out.score.results[i] = t.end;
        if (t.end.score > 0) pass.out.traceback.traced[i] = std::move(t);
      },
      threads);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t bases = batch.refs[i].size() + batch.queries[i].size();
    pass.out.score.cells += stats[i].cells;
    pass.score_bytes += xdrop_traffic_bytes(stats[i].cells, bases);
    if (!traced || pass.out.score.results[i].score <= 0) continue;
    const std::size_t cells = stats[i].cells + stats[i].traceback_cells;
    pass.out.traceback.cells += cells;
    pass.traceback_bytes += xdrop_traffic_bytes(cells, bases);
    pass.replay_cells += stats[i].traceback_cells;
  }
  return pass;
}

/// Shared traceback-phase body of both backends: the SIMD cohort engine
/// over every pair with a non-zero score-pass result (long, high-scoring or
/// oversized pairs on the linear-memory engine), output order matching
/// input order. `zdrop` mirrors the backend's score pass for those pairs, so
/// endpoints stay bit-identical.
struct EnginePhase {
  std::vector<align::TracedAlignment> traced;
  std::size_t cells = 0;
  std::size_t bytes = 0;
};

EnginePhase trace_batch(const seq::PairBatch& batch,
                        std::span<const align::AlignmentResult> results,
                        const align::ScoringScheme& scoring, align::Score zdrop, int threads) {
  std::vector<align::TracebackResult> traces =
      align::simd::traceback_batch(batch, results, scoring, zdrop, threads);
  EnginePhase out;
  out.traced.reserve(traces.size());
  for (align::TracebackResult& t : traces) {
    out.cells += t.stats.cells();
    out.bytes += t.stats.traffic_bytes;
    out.traced.push_back(std::move(t.traced));
  }
  return out;
}

/// Shared chaining-phase body of the host backends: the forward-only engine
/// over the shard's tasks (ISA dispatch inside), wall-clock timed. Every
/// backend funnels through seedext::chain_tasks_run, so chains are
/// bit-identical to the sequential oracle wherever the shard lands.
ChainingOutput chain_shard(const seedext::ChainBatch& batch,
                           std::span<const std::size_t> tasks, int threads) {
  util::Timer timer;
  ChainingOutput out;
  out.chains.resize(batch.tasks());
  seedext::chain_tasks_run(batch, tasks, out.chains, &out.engine_stats, threads);
  out.anchors = out.engine_stats.anchors;
  out.updates = out.engine_stats.pushes + out.engine_stats.settled;
  out.time_ms = timer.millis();
  return out;
}

/// The chaining phase's modeled DRAM traffic: each anchor's four SoA columns
/// stream once (16 B) and each evaluated candidate reads and may rewrite a
/// score/parent slot (8 B).
std::uint64_t chaining_traffic_bytes(std::size_t anchors, std::size_t updates) {
  return static_cast<std::uint64_t>(anchors) * 16 +
         static_cast<std::uint64_t>(updates) * 8;
}

/// One of `parts` even shares of a host thread budget (0 = hardware
/// concurrency), never below one thread.
int thread_share(int threads_total, int parts) {
  const int total = threads_total > 0 ? threads_total : util::max_parallel_threads();
  return std::max(1, total / parts);
}

}  // namespace

std::vector<double> lane_weights(const AlignBackend& backend) {
  std::vector<double> weights(static_cast<std::size_t>(backend.lanes()));
  for (int l = 0; l < backend.lanes(); ++l) {
    weights[static_cast<std::size_t>(l)] = backend.lane_weight(l);
  }
  return weights;
}

HostBackend::HostBackend(align::ScoringScheme scoring, int lanes, int threads_total,
                         align::Score zdrop)
    : scoring_(scoring), lanes_(lanes), zdrop_(zdrop) {
  SALOBA_CHECK_MSG(scoring_.valid(), "invalid scoring scheme");
  SALOBA_CHECK_MSG(lanes_ >= 1, "host backend needs at least one lane");
  if (lanes_ > 1) {
    // Divide the host budget so concurrent lanes share, not fight over,
    // the cores. A single lane keeps the library-default team.
    threads_per_lane_ = thread_share(threads_total, lanes_);
  } else if (threads_total > 0) {
    threads_per_lane_ = threads_total;
  }
}

BackendOutput HostBackend::run(const seq::PairBatch& batch, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  BackendOutput out;
  align::simd::EngineStats stats;
  out.results = align::simd::align_batch(batch, scoring_, &stats, threads_per_lane_, zdrop_);
  out.time_ms = stats.wall_ms;
  out.cells = stats.cells;
  return out;
}

TracebackOutput HostBackend::run_traceback(const seq::PairBatch& batch,
                                           std::span<const align::AlignmentResult> results,
                                           int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  util::Timer timer;
  EnginePhase phase = trace_batch(batch, results, scoring_, zdrop_, threads_per_lane_);
  TracebackOutput out;
  out.traced = std::move(phase.traced);
  out.cells = phase.cells;
  out.time_ms = timer.millis();
  return out;
}

LongReadOutput HostBackend::run_longread(const seq::PairBatch& batch, align::Score xdrop,
                                         bool traced, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  util::Timer timer;
  WavefrontPass pass = wavefront_pass(batch, scoring_, xdrop, traced, threads_per_lane_);
  const double wall_ms = timer.millis();
  const auto forward = static_cast<double>(pass.out.score.cells);
  const double all = forward + static_cast<double>(pass.replay_cells);
  pass.out.score.time_ms = all > 0.0 ? wall_ms * forward / all : wall_ms;
  pass.out.traceback.time_ms = wall_ms - pass.out.score.time_ms;
  return std::move(pass.out);
}

ChainingOutput HostBackend::run_chaining(const seedext::ChainBatch& batch,
                                         std::span<const std::size_t> tasks, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  return chain_shard(batch, tasks, threads_per_lane_);
}

SimulatedGpuBackend::SimulatedGpuBackend(const AlignerOptions& options)
    : scoring_(options.scoring) {
  SALOBA_CHECK_MSG(scoring_.valid(), "invalid scoring scheme");
  SALOBA_CHECK_MSG(options.devices >= 1, "need at least one device");
  kernel_ = kernels::make_kernel(options.kernel);

  std::vector<gpusim::DeviceSpec> specs;
  for (const std::string& preset : device_preset_list(options.device)) {
    specs.push_back(gpusim::device_by_name(preset));
  }
  const bool mixed = specs.size() > 1;
  if (!mixed) {
    // Homogeneous: `devices` identical replicas of the single preset. Copy
    // out first — assign() from an element of the vector being reassigned
    // is self-aliasing the standard doesn't guarantee to survive.
    const gpusim::DeviceSpec only = specs.front();
    specs.assign(static_cast<std::size_t>(options.devices), only);
  } else {
    SALOBA_CHECK_MSG(options.devices == 1 ||
                         static_cast<std::size_t>(options.devices) == specs.size(),
                     "devices=" << options.devices << " conflicts with a "
                                << specs.size() << "-preset device list");
  }

  devices_.reserve(specs.size());
  weights_.reserve(specs.size());
  double slowest = gpusim::peak_issue_rate(specs.front());
  for (const gpusim::DeviceSpec& spec : specs) {
    slowest = std::min(slowest, gpusim::peak_issue_rate(spec));
  }
  for (const gpusim::DeviceSpec& spec : specs) {
    devices_.push_back(std::make_unique<gpusim::Device>(spec));
    weights_.push_back(gpusim::peak_issue_rate(spec) / slowest);
  }
  name_ = "sim:" + kernel_->info().name + "@" + specs.front().name;
  if (mixed) {
    for (std::size_t d = 1; d < specs.size(); ++d) name_ += "+" + specs[d].name;
  }
}

double SimulatedGpuBackend::lane_weight(int lane) const {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  return weights_[static_cast<std::size_t>(lane)];
}

BackendOutput SimulatedGpuBackend::run(const seq::PairBatch& batch, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  kernels::KernelResult kr = kernel_->run(device(lane), batch, scoring_);
  BackendOutput out;
  out.results = std::move(kr.results);
  out.time_ms = kr.time.total_ms;
  out.cells = kr.stats.totals.dp_cells;
  out.kernel_stats = kr.stats;
  out.time_breakdown = kr.time;
  return out;
}

TracebackOutput SimulatedGpuBackend::run_traceback(
    const seq::PairBatch& batch, std::span<const align::AlignmentResult> results, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  // Functional pass on the host (no zdrop: the kernels apply none, so traced
  // endpoints match the kernels bit-for-bit)...
  EnginePhase phase = trace_batch(batch, results, scoring_, /*zdrop=*/0, /*threads=*/0);
  TracebackOutput out;
  out.traced = std::move(phase.traced);
  out.cells = phase.cells;
  // ...then the phase's modeled cost on this lane's device.
  const gpusim::Device& dev = device(lane);
  out.time_breakdown = gpusim::estimate_traceback_time(dev.spec(), dev.cost_params(),
                                                       phase.cells, phase.bytes);
  out.time_ms = out.time_breakdown->total_ms;
  gpusim::KernelStats stats;
  stats.totals.traceback_cells = phase.cells;
  stats.totals.traceback_bytes = phase.bytes;
  out.kernel_stats = stats;
  return out;
}

LongReadOutput SimulatedGpuBackend::run_longread(const seq::PairBatch& batch,
                                                 align::Score xdrop, bool traced, int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  // Functional pass on the host (the sweep is backend-independent)...
  WavefrontPass pass = wavefront_pass(batch, scoring_, xdrop, traced, /*threads=*/0);
  // ...then each half's modeled cost on this lane's device replaces the
  // host wall-clock.
  const gpusim::Device& dev = device(lane);
  auto book = [&](auto& half, std::uint64_t bytes) {
    half.time_breakdown =
        gpusim::estimate_xdrop_time(dev.spec(), dev.cost_params(), half.cells, bytes);
    half.time_ms = half.time_breakdown->total_ms;
    half.kernel_stats = gpusim::KernelStats{};
    half.kernel_stats->totals.xdrop_cells = half.cells;
    half.kernel_stats->totals.xdrop_bytes = bytes;
  };
  book(pass.out.score, pass.score_bytes);
  if (traced) book(pass.out.traceback, pass.traceback_bytes);
  return std::move(pass.out);
}

ChainingOutput SimulatedGpuBackend::run_chaining(const seedext::ChainBatch& batch,
                                                 std::span<const std::size_t> tasks,
                                                 int lane) {
  SALOBA_CHECK_MSG(lane >= 0 && lane < lanes(), "lane " << lane << " out of range");
  // Functional pass on the host — the engine's output is ISA- and
  // backend-independent, so the simulated lane returns the same chains...
  ChainingOutput out = chain_shard(batch, tasks, /*threads=*/0);
  // ...with the phase's modeled cost on this lane's device replacing the
  // host wall-clock.
  const gpusim::Device& dev = *devices_[static_cast<std::size_t>(lane)];
  const std::uint64_t bytes = chaining_traffic_bytes(out.anchors, out.updates);
  out.time_breakdown = gpusim::estimate_chaining_time(dev.spec(), dev.cost_params(),
                                                      out.updates, bytes);
  out.time_ms = out.time_breakdown->total_ms;
  gpusim::KernelStats stats;
  stats.totals.chaining_updates = out.updates;
  stats.totals.chaining_bytes = bytes;
  out.kernel_stats = stats;
  return out;
}

std::unique_ptr<AlignBackend> make_backend(const AlignerOptions& options) {
  if (options.backend != Backend::kCpu) return std::make_unique<SimulatedGpuBackend>(options);
  if (options.cpu_lanes < 1) {
    throw std::invalid_argument("cpu_lanes=" + std::to_string(options.cpu_lanes) +
                                " but a host backend needs at least one lane");
  }
  return std::make_unique<HostBackend>(options.scoring, options.cpu_lanes, options.cpu_threads,
                                       options.zdrop);
}

std::vector<std::unique_ptr<AlignBackend>> make_worker_backends(const AlignerOptions& options,
                                                                std::size_t workers) {
  SALOBA_CHECK_MSG(workers >= 1, "need at least one worker backend");
  AlignerOptions replica = options;
  if (workers > 1 && options.backend == Backend::kCpu) {
    replica.cpu_threads = thread_share(options.cpu_threads, static_cast<int>(workers));
  }
  std::vector<std::unique_ptr<AlignBackend>> backends;
  for (std::size_t w = 0; w < workers; ++w) backends.push_back(make_backend(replica));
  return backends;
}

}  // namespace saloba::core
