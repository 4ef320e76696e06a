// Workload definitions and their seeded, cached inputs.
//
// Every input is a pure function of (workload, size, seed): the reference
// genome, the FASTQ that one measured pass maps, a smaller warm-up FASTQ,
// the truth table of simulated origins, and for bigref_positions the
// on-disk SharedIndex of the 32 Mbp reference. They are generated once per seed
// into the work directory, outside every timed region.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "seq/alphabet.hpp"
#include "seq/read_simulator.hpp"

namespace perfbench {

enum class Kind { kIlluminaSam, kNanoporeSam, kBigrefPositions };

struct Config {
  Kind kind = Kind::kIlluminaSam;
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;  ///< self-check sizes

  std::size_t genome_bases = 0;
  std::size_t pass_reads = 0;    ///< reads in one measured pass
  std::size_t warmup_reads = 0;  ///< reads mapped untimed during set-up
  std::size_t chunk_reads = 0;   ///< map_stream chunk size
  int threads = 2;               ///< compute threads (OpenMP team, engines)

  /// SAM output with traceback; bigref_positions emits positions only.
  bool sam() const { return kind != Kind::kBigrefPositions; }
};

/// Throws std::invalid_argument naming the valid workloads on a bad name.
Config make_config(const std::string& workload, std::uint64_t seed, bool tiny);

/// Files of one (workload, size, seed) input set.
struct InputPaths {
  std::filesystem::path dir;
  std::filesystem::path genome() const { return dir / "genome.bin"; }
  std::filesystem::path reads() const { return dir / "reads.fq"; }
  std::filesystem::path warmup() const { return dir / "warmup.fq"; }
  std::filesystem::path truth() const { return dir / "truth.tsv"; }
  std::filesystem::path index() const { return dir / "ref.idx"; }
  std::filesystem::path done() const { return dir / "inputs.ok"; }
};

InputPaths input_paths(const std::filesystem::path& workdir, const Config& config);

/// Generates whatever of the input set is missing. The index file is
/// validated through SharedIndex::load and rebuilt when it is rejected
/// with IndexFormatError (stale genome fingerprint, truncation, version).
void prepare_inputs(const Config& config, const InputPaths& paths);

/// Simulated origin of pass read i.
struct Truth {
  std::size_t pos = 0;
  bool reverse = false;
};

std::vector<saloba::seq::BaseCode> load_genome(const InputPaths& paths);
std::vector<Truth> load_truth(const InputPaths& paths);

/// k of the on-disk bigref_positions index (the MapperParams default).
constexpr int kIndexK = 16;

}  // namespace perfbench
