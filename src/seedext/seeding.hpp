// Seeding: find maximal exact matches between a read and the genome, via
// either the k-mer index (fast path, default) or FM-index backward search
// (BWT path, as in BWA-MEM). Produces the Seed lists that chaining and
// extension-job extraction consume.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "seedext/fm_index.hpp"
#include "seedext/kmer_index.hpp"
#include "seedext/shared_index.hpp"
#include "seq/alphabet.hpp"

namespace saloba::seedext {

struct Seed {
  std::uint32_t qpos = 0;  ///< start in the read
  std::uint32_t rpos = 0;  ///< start in the genome
  std::uint32_t len = 0;   ///< exact-match length

  std::int64_t diagonal() const {
    return static_cast<std::int64_t>(rpos) - static_cast<std::int64_t>(qpos);
  }
  bool operator==(const Seed&) const = default;
};

struct SeedingParams {
  int min_seed_len = 19;     ///< BWA-MEM default
  std::size_t max_hits = 32; ///< occurrence cap per k-mer (repeat filter)
  int stride = 1;            ///< query positions sampled for k-mer seeding
};

/// K-mer seeding: k-mer hits extended to maximal exact matches, filtered to
/// len >= min_seed_len, each maximal match reported once (a hit inside the
/// match last extended on its diagonal is skipped, not re-extended), sorted
/// by (qpos, rpos). Hit lists longer than max_hits are dropped whole.
std::vector<Seed> find_seeds(const KmerIndex& index, std::span<const seq::BaseCode> genome,
                             std::span<const seq::BaseCode> read, const SeedingParams& params);

/// K-mer seeding over a reference-sharded index: same algorithm (and the
/// same one implementation underneath), with each k-mer's hit list the
/// shard-merged global positions — bit-identical seeds to the monolithic
/// find_seeds, including the max_hits repeat filter, which judges the
/// merged list.
std::vector<Seed> find_seeds(const ShardedKmerIndex& index,
                             std::span<const seq::BaseCode> genome,
                             std::span<const seq::BaseCode> read, const SeedingParams& params);

/// FM-index seeding: greedy SMEM-like pass — at each query position, the
/// longest exact match is found by backward search, reported with all its
/// genome occurrences (up to max_hits).
std::vector<Seed> find_seeds_fm(const FmIndex& index, std::span<const seq::BaseCode> read,
                                const SeedingParams& params);

}  // namespace saloba::seedext
