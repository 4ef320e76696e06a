#include "inputs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "seedext/shared_index.hpp"
#include "seq/fasta.hpp"
#include "seq/random_genome.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using saloba::seq::BaseCode;

Config make_config(const std::string& workload, std::uint64_t seed, bool tiny) {
  Config c;
  c.workload = workload;
  c.seed = seed;
  c.tiny = tiny;
  if (workload == "illumina_sam") {
    c.kind = Kind::kIlluminaSam;
    c.genome_bases = tiny ? 300'000 : 4'000'000;
    c.pass_reads = tiny ? 48 : 2048;
    c.warmup_reads = tiny ? 16 : 256;
    c.chunk_reads = tiny ? 16 : 512;
  } else if (workload == "nanopore_sam") {
    c.kind = Kind::kNanoporeSam;
    c.genome_bases = tiny ? 300'000 : 4'000'000;
    c.pass_reads = tiny ? 4 : 96;
    c.warmup_reads = tiny ? 2 : 4;
    c.chunk_reads = tiny ? 2 : 8;
  } else if (workload == "bigref_positions") {
    c.kind = Kind::kBigrefPositions;
    c.genome_bases = tiny ? 1'000'000 : 32'000'000;
    c.pass_reads = tiny ? 128 : 16384;
    c.warmup_reads = tiny ? 32 : 1024;
    c.chunk_reads = tiny ? 32 : 2048;
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (valid: illumina_sam, nanopore_sam, bigref_positions)");
  }
  return c;
}

InputPaths input_paths(const fs::path& workdir, const Config& config) {
  // The sizes are part of the name, so inputs of other sizes are never reused.
  std::ostringstream name;
  name << 's' << config.seed << "-g" << config.genome_bases << "-r" << config.pass_reads << "-w"
       << config.warmup_reads;
  return InputPaths{workdir / config.workload / name.str()};
}

namespace {

saloba::seq::ReadProfile read_profile(const Config& c) {
  using saloba::seq::ReadProfile;
  switch (c.kind) {
    case Kind::kIlluminaSam:
      return ReadProfile::illumina_250bp();
    case Kind::kNanoporeSam:
      // Minimum length mean / 5: 2 kbp at full size, so every traceback
      // window reaches the 2 kbp long-read routing threshold.
      return ReadProfile::nanopore_ultralong(c.tiny ? 3000 : 10000);
    case Kind::kBigrefPositions: {
      ReadProfile p = ReadProfile::equal_length(150);
      p.mutation_rate = 0.01;  // donor divergence
      p.error_rate = 0.005;
      return p;
    }
  }
  throw std::logic_error("unhandled workload kind");
}

std::vector<BaseCode> make_genome(const Config& c) {
  saloba::seq::GenomeParams gp;
  gp.length = c.genome_bases;
  gp.seed = c.seed;
  return saloba::seq::generate_genome(gp);
}

void write_genome(const fs::path& path, const std::vector<BaseCode>& genome) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(genome.data()),
            static_cast<std::streamsize>(genome.size()));
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Read lengths from one fixed draw of the profile's log-normal length
/// distribution (ReadSimulator's own formula), the same for every seed:
/// a read's length sets its cost, so runs with different seeds then map the
/// same mix of lengths, and the seed still picks the genome, positions,
/// strands and errors. The lengths are dealt longest first, in snake order,
/// over the map_stream chunks, so every chunk holds about the same number of
/// bases and a chunk's latency measures the mapper, not which reads the
/// draw happened to put together.
std::vector<std::size_t> fixed_lengths(const saloba::seq::ReadProfile& p, std::size_t count,
                                       std::size_t chunk, std::uint64_t stream) {
  saloba::util::Xoshiro256 rng(stream);
  const double mu =
      std::log(static_cast<double>(p.length_mean)) - 0.5 * p.length_sigma * p.length_sigma;
  std::vector<std::size_t> lengths(count);
  for (auto& len : lengths) {
    len = std::clamp(static_cast<std::size_t>(rng.lognormal(mu, p.length_sigma)), p.length_min,
                     p.length_max);
  }
  if (count % chunk != 0) return lengths;  // chunks of unequal size: keep the draw order
  std::sort(lengths.begin(), lengths.end(), std::greater<>());
  const std::size_t chunks = count / chunk;
  std::vector<std::size_t> dealt(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t round = i / chunks;
    const std::size_t slot = round % 2 == 0 ? i % chunks : chunks - 1 - i % chunks;
    dealt[slot * chunk + round] = lengths[i];
  }
  return dealt;
}

std::vector<saloba::seq::Sequence> simulate(const std::vector<BaseCode>& genome,
                                            const Config& c, std::size_t count,
                                            std::uint64_t salt,
                                            std::vector<Truth>* truth) {
  const saloba::seq::ReadProfile profile = read_profile(c);
  const std::uint64_t seed = c.seed * 0x9E3779B97F4A7C15ull + salt;
  std::vector<saloba::seq::SimulatedRead> simulated;
  if (profile.length_sigma > 0.0) {
    const std::vector<std::size_t> lengths =
        fixed_lengths(profile, count, std::min(count, c.chunk_reads), salt);
    for (std::size_t i = 0; i < count; ++i) {
      saloba::seq::ReadProfile fixed = profile;
      fixed.length_sigma = 0.0;
      fixed.length_mean = fixed.length_min = fixed.length_max = lengths[i];
      saloba::seq::ReadSimulator sim(genome, fixed, seed + i);
      simulated.push_back(sim.simulate_one());
      simulated.back().read.name = "read_" + std::to_string(i);
    }
  } else {
    simulated = saloba::seq::ReadSimulator(genome, profile, seed).simulate(count);
  }
  std::vector<saloba::seq::Sequence> reads;
  reads.reserve(count);
  for (auto& r : simulated) {
    if (truth) truth->push_back(Truth{r.true_pos, r.reverse_strand});
    reads.push_back(std::move(r.read));
  }
  return reads;
}

/// Flushes a written input file to disk, so that its writeback happens here
/// and not in the middle of a later timed region.
void sync_file(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot sync " + path.string());
  }
  ::close(fd);
}

void ensure_index(const InputPaths& paths, const std::vector<BaseCode>& genome) {
  using namespace saloba::seedext;
  const IndexOptions options{kIndexK, /*kmer=*/true, /*fm=*/false};
  if (fs::exists(paths.index())) {
    try {
      SharedIndex::load(paths.index().string(), genome, options);
      return;
    } catch (const IndexFormatError& e) {
      std::cerr << "perfbench: rebuilding rejected index " << paths.index() << ": " << e.what()
                << "\n";
      fs::remove(paths.index());
    }
  }
  save_shared_index(paths.index().string(), genome, options);
  sync_file(paths.index());
  SharedIndex::load(paths.index().string(), genome, options);  // throws if unusable
}

}  // namespace

void prepare_inputs(const Config& config, const InputPaths& paths) {
  if (!fs::exists(paths.done())) {
    fs::create_directories(paths.dir);
    const std::vector<BaseCode> genome = make_genome(config);
    write_genome(paths.genome(), genome);
    std::vector<Truth> truth;
    saloba::seq::write_fastq_file(paths.reads().string(),
                                  simulate(genome, config, config.pass_reads, 1, &truth));
    saloba::seq::write_fastq_file(paths.warmup().string(),
                                  simulate(genome, config, config.warmup_reads, 2, nullptr));
    std::ofstream out(paths.truth());
    for (const Truth& t : truth) out << t.pos << '\t' << (t.reverse ? 1 : 0) << '\n';
    if (!out) throw std::runtime_error("cannot write " + paths.truth().string());
    out.close();
    for (const fs::path& file : {paths.genome(), paths.reads(), paths.warmup(), paths.truth()}) {
      sync_file(file);
    }
    std::ofstream(paths.done()) << "ok\n";
  }
  if (config.kind == Kind::kBigrefPositions) ensure_index(paths, load_genome(paths));
}

std::vector<BaseCode> load_genome(const InputPaths& paths) {
  std::ifstream in(paths.genome(), std::ios::binary);
  if (!in) throw std::runtime_error("missing " + paths.genome().string());
  std::vector<BaseCode> genome(fs::file_size(paths.genome()));
  in.read(reinterpret_cast<char*>(genome.data()), static_cast<std::streamsize>(genome.size()));
  if (!in) throw std::runtime_error("short read of " + paths.genome().string());
  return genome;
}

std::vector<Truth> load_truth(const InputPaths& paths) {
  std::ifstream in(paths.truth());
  if (!in) throw std::runtime_error("missing " + paths.truth().string());
  std::vector<Truth> truth;
  std::size_t pos = 0;
  int reverse = 0;
  while (in >> pos >> reverse) truth.push_back(Truth{pos, reverse != 0});
  return truth;
}

}  // namespace perfbench
