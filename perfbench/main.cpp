// FASTQ -> SAM benchmark program: runs one phase of one workload per process.
//
//   perfbench --phase prepare|setup|measure --workload NAME --seed N
//             [--seconds S] [--trace 0|1] [--tiny] [--workdir DIR]
//
//   prepare  generates the seeded inputs into the work directory (untimed)
//   setup    one timed set-up: mapper + engine construction and warm-up
//   measure  one set-up, then mapped passes over the FASTQ for S seconds
//   probe    the host speed probe the measure phase starts (probe.hpp)
//
// Each phase prints one JSON object as its last stdout line; run.py turns
// the phases into the benchmark's result. The library is reached only
// through its public calls: ReadMapper::map_stream, Aligner::align /
// batch_chainer, FastqChunkReader and SamWriter. Every pass goes through the
// benchmark's wrappers around the extenders, chainer, reader and sink; with
// --trace 1 the measure phase alternates untraced passes with passes whose
// wrappers record spans. Per-layer metrics come from those spans, end-to-end
// ones never do.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(SALOBA_HAVE_OPENMP)
#include <omp.h>
#endif

#include "align/simd_engine.hpp"
#include "core/aligner.hpp"
#include "inputs.hpp"
#include "probe.hpp"
#include "seedext/pipeline.hpp"
#include "seedext/sam_output.hpp"
#include "seq/chunk_reader.hpp"
#include "seq/sam.hpp"
#include "spans.hpp"
#include "util/args.hpp"
#include "util/checksum.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace saloba;

/// A read counts as correctly mapped within this many bases of its origin.
constexpr std::size_t kPosTolerance = 50;

// ---------------------------------------------------------------------------
// Engines and set-up
// ---------------------------------------------------------------------------

core::AlignerOptions host_options(const Config& c, bool traceback) {
  core::AlignerOptions o;
  o.backend = core::Backend::kCpu;
  o.device = "simd";
  o.cpu_threads = c.threads;
  o.traceback = traceback;
  if (c.kind == Kind::kNanoporeSam) {
    o.longread_threshold = 2000;  // every traceback window routes to X-drop
    o.xdrop = 60;
  }
  return o;
}

/// Everything a measured pass needs.
struct Rig {
  Config config;
  std::unique_ptr<seedext::ReadMapper> mapper;
  std::unique_ptr<core::Aligner> extend;
  std::unique_ptr<core::Aligner> trace;  ///< SAM workloads only (traceback on)
};

/// One small pair from the reference: the engines' first call.
seq::PairBatch first_call_batch(const std::vector<seq::BaseCode>& genome) {
  const std::size_t mid = genome.size() / 2;
  seq::PairBatch batch;
  batch.add(std::vector<seq::BaseCode>(genome.begin() + mid, genome.begin() + mid + 200),
            std::vector<seq::BaseCode>(genome.begin() + mid - 20, genome.begin() + mid + 220));
  return batch;
}

struct PassStats {
  double wall_s = 0.0;  ///< probe time excluded
  std::vector<double> speeds;  ///< host probe readings during the pass
  std::size_t attempted = 0;  ///< reads
  std::size_t failed = 0;
  std::size_t reads = 0;
  std::size_t correct = 0;  ///< mapped near the simulated origin, right strand
  std::uint64_t digest = 0;
  std::map<std::string, double> layers;  ///< traced passes only
  std::vector<Span> spans;               ///< traced passes only
};

PassStats run_pass(Rig& rig, const fs::path& fastq, std::size_t expected_reads,
                   const std::vector<Truth>* truth, Tracer* tracer, std::int64_t pass_id,
                   HostProbe* probe = nullptr);

/// Mapper construction ("seedext.index"), engine construction plus a first
/// call ("core.engine_init"), and an untraced warm-up pass over the warm-up
/// FASTQ, which absorbs one-time costs such as the SIMD lane calibration.
Rig set_up(const Config& config, const InputPaths& paths, std::vector<seq::BaseCode> genome,
           Tracer* tracer) {
  Rig rig;
  rig.config = config;
  seedext::MapperParams params;
  if (config.kind == Kind::kBigrefPositions) params.index_path = paths.index().string();
  const seq::PairBatch probe = first_call_batch(genome);
  {
    Tracer::Scope span(tracer, "seedext.index");
    rig.mapper = std::make_unique<seedext::ReadMapper>(std::move(genome), params);
  }
  {
    Tracer::Scope span(tracer, "core.engine_init");
    rig.extend = std::make_unique<core::Aligner>(host_options(config, false));
    rig.extend->align(probe);
    if (config.sam()) {
      rig.trace = std::make_unique<core::Aligner>(host_options(config, true));
      rig.trace->align(probe);
    }
  }
  {
    Tracer::Scope span(tracer, "setup.warmup");
    const PassStats warm = run_pass(rig, paths.warmup(), config.warmup_reads, nullptr,
                                    nullptr, -1);
    if (warm.failed > 0) throw std::runtime_error("warm-up pass failed");
  }
  return rig;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

struct CigarSpan {
  bool ok = true;
  std::size_t query = 0;
  std::size_t ref = 0;
};

CigarSpan cigar_span(const std::string& cigar) {
  CigarSpan s;
  std::size_t n = 0;
  bool digits = false;
  for (const char ch : cigar) {
    if (std::isdigit(static_cast<unsigned char>(ch))) {
      n = n * 10 + static_cast<std::size_t>(ch - '0');
      digits = true;
      continue;
    }
    if (!digits || n == 0) return CigarSpan{false};
    switch (ch) {
      case 'M': case '=': case 'X': s.query += n; s.ref += n; break;
      case 'I': case 'S': s.query += n; break;
      case 'D': case 'N': s.ref += n; break;
      case 'H': case 'P': break;
      default: return CigarSpan{false};
    }
    n = 0;
    digits = false;
  }
  if (digits || cigar.empty()) return CigarSpan{false};
  return s;
}

/// Structural SAM checks: identity fields, and for mapped records a CIGAR
/// that consumes exactly the read and stays on the reference.
bool well_formed(const seq::SamRecord& r, const seq::Sequence& read, std::size_t genome_len) {
  if (r.qname != read.name || r.seq != read.to_string()) return false;
  if (r.unmapped()) return r.cigar == "*";
  if (r.pos == 0 || r.mapq < 0 || r.mapq > 60) return false;
  const CigarSpan span = cigar_span(r.cigar);
  return span.ok && span.query == read.size() && r.pos - 1 + span.ref <= genome_len;
}

/// 0-based genome position of a mapped record's first read base: the
/// leftmost aligned base minus the leading soft clip.
std::size_t read_origin(const seq::SamRecord& r) {
  std::size_t clip = 0;
  const std::size_t op = r.cigar.find_first_not_of("0123456789");
  if (op != std::string::npos && op > 0 && r.cigar[op] == 'S') {
    clip = std::stoul(r.cigar.substr(0, op));
  }
  return r.pos - 1 > clip ? r.pos - 1 - clip : 0;
}

bool near_truth(const Truth& t, std::size_t pos0, bool reverse) {
  const std::size_t d = pos0 > t.pos ? pos0 - t.pos : t.pos - pos0;
  return reverse == t.reverse && d <= kPosTolerance;
}

/// Guard that points the mapper's chaining stage at `chainer` for one pass
/// and restores the default afterwards (wrappers capture pass locals).
class ChainerScope {
 public:
  ChainerScope(seedext::ReadMapper& mapper, seedext::BatchChainer chainer) : mapper_(mapper) {
    mapper_.set_batch_chainer(std::move(chainer));
  }
  ~ChainerScope() { mapper_.set_batch_chainer(nullptr); }
  ChainerScope(const ChainerScope&) = delete;
  ChainerScope& operator=(const ChainerScope&) = delete;

 private:
  seedext::ReadMapper& mapper_;
};

/// FastqChunkReader with a "seq.parse" span per chunk. It delegates every
/// record to an inner FastqChunkReader over the same stream; with a null
/// tracer it records nothing.
class TimedFastqReader final : public seq::SequenceChunkReader {
 public:
  TimedFastqReader(std::istream& in, std::size_t chunk_records, Tracer* tracer)
      : SequenceChunkReader(in, chunk_records), inner_(in, chunk_records), tracer_(tracer) {}

 protected:
  bool parse_record(seq::Sequence& out) override {
    if (!tracer_) return inner_.read_record(out);
    if (in_chunk_ == 0) start_ns_ = tracer_->now_ns();
    const bool ok = inner_.read_record(out);
    if (ok) ++in_chunk_;
    if (in_chunk_ > 0 && (!ok || in_chunk_ == chunk_records())) {
      Span span;
      span.name = "seq.parse";
      span.start_ns = start_ns_;
      span.end_ns = tracer_->now_ns();
      span.unit = static_cast<std::int64_t>(chunk_++);
      span.counters[0] = {"records", static_cast<double>(in_chunk_)};
      span.n_counters = 1;
      tracer_->record(span);
      in_chunk_ = 0;
    }
    return ok;
  }

 private:
  seq::FastqChunkReader inner_;
  Tracer* tracer_;
  std::int64_t start_ns_ = 0;
  std::size_t in_chunk_ = 0;
  std::size_t chunk_ = 0;
};

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// One map_stream pass over a FASTQ: Aligner extension and chaining phase,
/// plus the traceback Aligner and SAM output on the SAM workloads; the
/// bigref workload emits positions only.
PassStats run_pass(Rig& rig, const fs::path& fastq, std::size_t expected_reads,
                   const std::vector<Truth>* truth, Tracer* tracer, std::int64_t pass_id,
                   HostProbe* probe) {
  const Config& c = rig.config;
  std::ifstream in(fastq);
  if (!in) throw std::runtime_error("cannot open " + fastq.string());
  TimedFastqReader reader(in, c.chunk_reads, tracer);
  std::size_t emitted = 0;
  auto chunk_of = [&] { return static_cast<std::int64_t>(emitted / c.chunk_reads); };

  // The same calls Aligner::batch_extender / traced_extender make, each in
  // a span (a no-op when tracer is null).
  seedext::BatchExtender extend = [&](const seq::PairBatch& batch) {
    Tracer::Scope span(tracer, "align.extend", chunk_of());
    core::AlignOutput out = rig.extend->align(batch);
    span.count("pairs", static_cast<double>(batch.size()));
    span.count("cells", static_cast<double>(out.cells));
    return std::move(out.results);
  };
  seedext::TracedBatchExtender trace;
  if (rig.trace) {
    trace = [&](const seq::PairBatch& batch) {
      Tracer::Scope span(tracer, "align.traceback", chunk_of());
      core::AlignOutput out = rig.trace->align(batch);
      span.count("pairs", static_cast<double>(batch.size()));
      span.count("cells", static_cast<double>(out.traceback_cells));
      return std::move(out.traced);
    };
  }
  seedext::BatchChainer chainer = [&, inner = rig.extend->batch_chainer()](
                                      const seedext::ChainBatch& batch) {
    Tracer::Scope span(tracer, "seedext.chain", chunk_of());
    seedext::ChainStageResult res = inner(batch);
    span.count("anchors", static_cast<double>(res.anchors));
    span.count("updates", static_cast<double>(res.updates));
    return res;
  };
  const ChainerScope chainer_scope(*rig.mapper, chainer);

  const std::size_t genome_len = rig.mapper->genome().size();
  std::ostringstream out;
  std::optional<seq::SamWriter> writer;
  if (c.sam()) {
    seq::SamHeader header;
    header.reference_length = genome_len;
    writer.emplace(out, header);
  }

  PassStats st;
  const util::Timer timer;
  // Writes one read's output line ("seedext.sam": a SAM record on the SAM
  // workloads, "name strand position score" on bigref), then checks it
  // ("bench.check", so the checks are not counted as mapper time).
  auto emit = [&](const seq::Sequence& read, const seedext::ReadMapping& mapping) {
    seq::SamRecord record;
    {
      Tracer::Scope span(tracer, "seedext.sam", chunk_of());
      if (writer) {
        record = seedext::to_sam_record(*rig.mapper, read, mapping);
        writer->write(record);
      } else {
        out << read.name << '\t'
            << (mapping.mapped ? (mapping.reverse_strand ? '-' : '+') : '*') << '\t'
            << mapping.ref_pos << '\t' << mapping.score << '\n';
      }
    }
    Tracer::Scope span(tracer, "bench.check", chunk_of());
    const Truth* t = truth && emitted < truth->size() ? &(*truth)[emitted] : nullptr;
    if (!writer) {
      if (mapping.mapped && mapping.ref_pos >= genome_len) return false;
      st.correct += mapping.mapped && t && near_truth(*t, mapping.ref_pos, mapping.reverse_strand);
      return true;
    }
    if (!well_formed(record, read, genome_len)) return false;
    st.correct += !record.unmapped() && t &&
                  near_truth(*t, read_origin(record),
                             (record.flags & seq::SamRecord::kFlagReverse) != 0);
    return true;
  };
  double probe_s = 0.0;
  auto sink = [&](const seq::Sequence& read, const seedext::ReadMapping& mapping) {
    st.failed += emit(read, mapping) ? 0 : 1;
    ++emitted;
    if (probe && emitted % c.chunk_reads == 0 && probe->due()) {  // a chunk boundary
      const util::Timer probe_timer;
      st.speeds.push_back(probe->speed());
      probe_s += probe_timer.seconds();
    }
  };

  try {
    Tracer::Scope span(tracer, "seedext.map_stream", pass_id);
    if (trace) {
      rig.mapper->map_stream(reader, extend, trace, sink);
    } else {
      rig.mapper->map_stream(reader, extend, sink);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: map_stream failed after " << emitted << " reads: " << e.what()
              << "\n";
  }
  st.wall_s = timer.seconds() - probe_s;
  st.reads = emitted;
  st.attempted = std::max(expected_reads, emitted);
  st.failed += st.attempted - emitted;
  st.digest = util::fnv1a64(std::as_bytes(std::span(out.view())));
  if (!tracer) return st;

  // Per-layer metrics of this pass, from its spans.
  st.spans = tracer->drain();
  const std::map<std::string, double> sum = summarize(st.spans);
  auto get = [&](const std::string& key) {
    const auto it = sum.find(key);
    return it == sum.end() ? 0.0 : it->second;
  };
  const double reads = static_cast<double>(std::max<std::size_t>(1, st.reads));
  auto& L = st.layers;
  L["seq.parse_ms"] = get("seq.parse");
  L["seedext.map_self_ms"] = get("self.seedext.map_stream");
  L["seedext.chain_ms"] = get("seedext.chain");
  L["seedext.chain_anchors"] = get("seedext.chain.anchors");
  L["seedext.chain_updates"] = get("seedext.chain.updates");
  L["seedext.sam_ms"] = get("seedext.sam");
  L["align.extend_ms"] = get("align.extend");
  L["align.extend_calls"] = get("align.extend.calls");
  L["align.extend_pairs"] = get("align.extend.pairs");
  L["align.extend_cells"] = get("align.extend.cells");
  L["align.extend_pairs_per_read"] = get("align.extend.pairs") / reads;
  L["align.traceback_ms"] = get("align.traceback");
  L["align.traceback_pairs"] = get("align.traceback.pairs");
  L["align.traceback_cells"] = get("align.traceback.cells");
  L["align.traceback_cells_per_read"] = get("align.traceback.cells") / reads;
  return st;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double median_of(std::vector<double> xs) { return xs.empty() ? 0.0 : util::median(xs); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// FNV-1a of this executable: digests are remembered per build.
std::uint64_t build_id() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return util::fnv1a64(std::as_bytes(std::span(std::string_view(bytes))));
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Compares this run's output digest with the one an earlier run of the
/// same build, workload and seed recorded; records it when it is the first.
bool digest_repeats(const InputPaths& paths, std::uint64_t digest) {
  const fs::path file = paths.dir / ("digest-" + hex(build_id()));
  if (fs::exists(file)) {
    std::string seen;
    std::ifstream(file) >> seen;
    return seen == hex(digest);
  }
  std::ofstream(file) << hex(digest) << "\n";
  return true;
}

std::string env_json(const Config& c) {
  std::ostringstream out;
  out << "{\"isa\": \"" << align::simd::isa_name() << "\", \"compute_threads\": " << c.threads
      << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"seed\": " << c.seed << ", \"workload\": \"" << c.workload
      << "\", \"tiny\": " << (c.tiny ? "true" : "false") << "}";
  return out.str();
}

int phase_setup(const Config& config, const InputPaths& paths) {
  std::vector<seq::BaseCode> genome = load_genome(paths);
  Tracer tracer;
  const util::Timer timer;
  double setup_s = 0.0;
  {
    const Rig rig = set_up(config, paths, std::move(genome), &tracer);
    setup_s = timer.seconds();  // the teardown is not set-up
  }
  const std::map<std::string, double> spans = summarize(tracer.drain());
  std::cout << "{\"setup_s\": " << json_number(setup_s)
            << ", \"seedext.index_ms\": " << json_number(spans.at("seedext.index"))
            << ", \"core.engine_init_ms\": " << json_number(spans.at("core.engine_init"))
            << "}\n";
  return 0;
}

int phase_measure(const Config& config, const InputPaths& paths, double seconds, bool trace) {
  const std::vector<Truth> truth = load_truth(paths);
  Tracer tracer;
  Tracer* setup_tracer = trace ? &tracer : nullptr;
  Rig rig = set_up(config, paths, load_genome(paths), setup_tracer);
  std::vector<Span> all_spans = tracer.drain();

  // Untraced passes give the end-to-end metrics; with --trace 1 they
  // alternate with traced passes, which give the per-layer metrics.
  std::vector<PassStats> plain;
  std::vector<PassStats> traced;
  // End-to-end runs read the host's speed before the first pass and then at
  // chunk boundaries, at most once a second (probe.hpp says why).
  std::optional<HostProbe> probe;
  std::vector<double> speeds;
  if (!trace) speeds.push_back(probe.emplace().speed());
  const util::Timer clock;
  for (std::int64_t pass = 0;; ++pass) {
    const bool traced_pass = trace && pass % 2 == 1;
    PassStats st = run_pass(rig, paths.reads(), config.pass_reads, &truth,
                            traced_pass ? &tracer : nullptr, pass, probe ? &*probe : nullptr);
    if (traced_pass) {
      all_spans.insert(all_spans.end(), st.spans.begin(), st.spans.end());
      st.spans.clear();
      traced.push_back(std::move(st));
    } else {
      plain.push_back(std::move(st));
    }
    if (clock.seconds() >= seconds && (!trace || !traced.empty())) break;
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool digests_agree = true;
  for (const auto* group : {&plain, &traced}) {
    for (const PassStats& st : *group) {
      attempted += st.attempted;
      failed += st.failed;
      digests_agree = digests_agree && st.digest == plain.front().digest;
    }
  }
  const bool repeats = digest_repeats(paths, plain.front().digest);
  if (!digests_agree || !repeats) {
    std::cerr << "perfbench: output digest differs between "
              << (!digests_agree ? "passes of this run" : "runs of this seed") << "\n";
  }
  const bool correct = failed == 0 && digests_agree && repeats;
  std::cout << "digest " << hex(plain.front().digest) << "\n";
  std::cout << "env " << env_json(config) << "\n";

  std::vector<Metric> metrics;
  if (!trace) {
    // Throughput over every pass of the run, divided by the host's mean
    // speed over the run (probe.hpp says why).
    double reads = 0.0;
    double wall_s = 0.0;
    for (const PassStats& st : plain) {
      reads += static_cast<double>(st.reads);
      wall_s += st.wall_s;
      speeds.insert(speeds.end(), st.speeds.begin(), st.speeds.end());
    }
    const double speed = std::accumulate(speeds.begin(), speeds.end(), 0.0) /
                         static_cast<double>(speeds.size());
    const PassStats& first = plain.front();
    const double correct_frac = static_cast<double>(first.correct) /
                                static_cast<double>(std::max<std::size_t>(1, first.reads));
    metrics = {
        {"reads_per_ref_s", reads / wall_s / speed, "reads/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"mapped_correct_frac", correct_frac, "fraction"},
    };
    std::cout << "wall reads/s " << json_number(reads / wall_s) << ", mean host speed "
              << json_number(speed) << " over " << speeds.size() << " probe readings\n";
    std::cout << "wall reads/s per pass:";
    for (const PassStats& st : plain) {
      std::cout << ' ' << json_number(static_cast<double>(st.reads) / st.wall_s);
    }
    std::cout << "\n";
  } else {
    // Times: median over traced passes. Counts repeat exactly per pass.
    std::map<std::string, std::vector<double>> per_key;
    for (const PassStats& st : traced) {
      for (const auto& [key, value] : st.layers) per_key[key].push_back(value);
    }
    for (auto& [key, values] : per_key) {
      const bool is_time = key.ends_with("_ms");
      std::string unit = is_time ? "ms" : "count";
      if (key.ends_with("_per_read")) {
        unit = key.find("cells") != std::string::npos ? "cells/read" : "pairs/read";
      }
      metrics.push_back({key, is_time ? median_of(values) : values.front(), unit});
    }
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    for (const PassStats& st : plain) plain_s.push_back(st.wall_s);
    for (const PassStats& st : traced) traced_s.push_back(st.wall_s);
    // Each timed layer's share of traced pass wall time (median over passes).
    std::cout << "layer_share";
    for (const auto& [key, values] : per_key) {
      if (!key.ends_with("_ms")) continue;
      std::vector<double> shares;
      for (std::size_t i = 0; i < traced.size(); ++i) {
        shares.push_back(values[i] / (traced[i].wall_s * 1000.0));
      }
      std::cout << ' ' << key << '=' << json_number(median_of(shares));
    }
    std::cout << "\n";
    std::cout << "trace_overhead " << json_number(median_of(traced_s) / median_of(plain_s) - 1.0)
              << " (traced vs untraced pass wall, " << traced.size() << " vs " << plain.size()
              << " passes)\n";
    const fs::path trace_file = paths.dir / "trace.json";
    write_chrome_trace(trace_file.string(), all_spans);
    std::cout << "chrome_trace " << trace_file.string() << " spans " << all_spans.size() << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": " << json_metrics(metrics) << "}\n";
  return 0;
}

int run(int argc, char** argv) {
  util::ArgParser args("perfbench", "FASTQ -> SAM benchmark (one phase)");
  args.add_string("phase", "prepare | setup | measure | probe", "measure");
  args.add_string("workload", "illumina_sam | nanopore_sam | bigref_positions", "illumina_sam");
  args.add_int("seed", "input seed", 1);
  args.add_double("seconds", "measured seconds (measure phase)", 10.0);
  args.add_int("trace", "1: traced run reporting per-layer metrics", 0);
  args.add_flag("tiny", "self-check input sizes");
  args.add_string("workdir", "input cache and trace directory", ".bench_work");
  if (!args.parse(argc, argv)) return 2;

  const Config config = make_config(args.get_string("workload"),
                                    static_cast<std::uint64_t>(args.get_int("seed")),
                                    args.get_flag("tiny"));
#if defined(SALOBA_HAVE_OPENMP)
  omp_set_num_threads(config.threads);
#endif
  const InputPaths paths = input_paths(args.get_string("workdir"), config);
  const std::string phase = args.get_string("phase");
  if (phase == "probe") return serve_probe();
  if (phase == "prepare") {
    prepare_inputs(config, paths);
    std::cout << "{\"prepared\": \"" << paths.dir.string() << "\"}\n";
    return 0;
  }
  if (!fs::exists(paths.done())) {
    throw std::runtime_error("inputs not prepared: " + paths.dir.string());
  }
  if (phase == "setup") return phase_setup(config, paths);
  if (phase == "measure") {
    return phase_measure(config, paths, args.get_double("seconds"), args.get_int("trace") != 0);
  }
  throw std::invalid_argument("unknown phase '" + phase +
                              "' (valid: prepare, setup, measure, probe)");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
