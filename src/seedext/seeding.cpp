#include "seedext/seeding.hpp"

#include <algorithm>
#include <set>

#include "util/check.hpp"

namespace saloba::seedext {
namespace {

/// Extends an exact match at (qpos, rpos, len) as far as possible in both
/// directions. N never matches (consistent with scoring).
Seed extend_exact(std::span<const seq::BaseCode> genome, std::span<const seq::BaseCode> read,
                  Seed seed) {
  auto matches = [](seq::BaseCode a, seq::BaseCode b) {
    return a == b && a < seq::kBaseN;
  };
  // Left.
  while (seed.qpos > 0 && seed.rpos > 0 &&
         matches(genome[seed.rpos - 1], read[seed.qpos - 1])) {
    --seed.qpos;
    --seed.rpos;
    ++seed.len;
  }
  // Right.
  while (seed.qpos + seed.len < read.size() && seed.rpos + seed.len < genome.size() &&
         matches(genome[seed.rpos + seed.len], read[seed.qpos + seed.len])) {
    ++seed.len;
  }
  return seed;
}

/// Rolling 2-bit keys (KmerIndex::pack_kmer's form) of the sampled read
/// positions q = 0, stride, 2 * stride, ... up to read.size() - k; a window
/// holding an N gets kNoKey, which no index holds.
constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

std::vector<std::uint64_t> sampled_keys(std::span<const seq::BaseCode> read, int k,
                                        const SeedingParams& params) {
  SALOBA_CHECK_MSG(params.stride >= 1, "seeding stride must be >= 1, got " << params.stride);
  std::vector<std::uint64_t> keys;
  const auto width = static_cast<std::size_t>(k);
  if (read.size() < width) return keys;
  const auto stride = static_cast<std::size_t>(params.stride);
  keys.reserve((read.size() - width) / stride + 1);
  const std::uint64_t mask = KmerIndex::kmer_mask(k);
  std::uint64_t key = 0;
  std::size_t valid = 0;  // consecutive non-N bases, capped at k
  for (std::size_t i = 0; i < read.size(); ++i) {
    if (read[i] >= 4) {
      valid = 0;
      key = 0;
    } else {
      key = ((key << 2) | read[i]) & mask;
      if (valid < width) ++valid;
    }
    if (i + 1 >= width && (i + 1 - width) % stride == 0) {
      keys.push_back(valid == width ? key : kNoKey);
    }
  }
  return keys;
}

/// The maximal match last extended on one diagonal, by its read end.
struct DiagonalEnd {
  std::int64_t diagonal;
  std::uint32_t end;
};

/// The one k-mer seeding loop, for the monolithic and the sharded index
/// alike: runs[s] is the (ascending) hit list of sampled position s, looked
/// up for the whole read in one batch so the index reads overlap. A hit
/// inside the maximal match last extended on its diagonal extends to that
/// same match, so it is skipped: each maximal match is extended once, and
/// the seeds need no dedup. The max_hits repeat filter judges each full
/// hit list (for the sharded index, the merged one).
std::vector<Seed> extend_hits(std::span<const std::span<const std::uint32_t>> runs, int k,
                              std::span<const seq::BaseCode> genome,
                              std::span<const seq::BaseCode> read,
                              const SeedingParams& params) {
  std::vector<Seed> seeds;
  const auto width = static_cast<std::size_t>(k);
  // Records ascending by diagonal; one is dropped once no later k-mer can
  // lie inside its match (q + k > end).
  std::vector<DiagonalEnd> live;
  std::vector<DiagonalEnd> next;
  for (std::size_t s = 0; s < runs.size(); ++s) {
    const std::span<const std::uint32_t> hits = runs[s];
    if (hits.empty() || hits.size() > params.max_hits) continue;
    const std::size_t q = s * static_cast<std::size_t>(params.stride);
    next.clear();
    std::size_t r = 0;
    auto keep = [&](const DiagonalEnd& rec) {
      if (rec.end >= q + width) next.push_back(rec);
    };
    for (std::uint32_t rpos : hits) {  // ascending, so diagonals ascend too
      const std::int64_t diagonal = static_cast<std::int64_t>(rpos) - static_cast<std::int64_t>(q);
      while (r < live.size() && live[r].diagonal < diagonal) keep(live[r++]);
      if (r < live.size() && live[r].diagonal == diagonal) {
        const DiagonalEnd rec = live[r++];
        if (rec.end >= q + width) {  // inside the recorded match: already extended
          next.push_back(rec);
          continue;
        }
      }
      const Seed seed = extend_exact(
          genome, read,
          Seed{static_cast<std::uint32_t>(q), rpos, static_cast<std::uint32_t>(k)});
      next.push_back(DiagonalEnd{diagonal, seed.qpos + seed.len});
      if (seed.len >= static_cast<std::uint32_t>(params.min_seed_len)) seeds.push_back(seed);
    }
    while (r < live.size()) keep(live[r++]);
    live.swap(next);
  }
  std::sort(seeds.begin(), seeds.end(), [](const Seed& a, const Seed& b) {
    return a.qpos != b.qpos ? a.qpos < b.qpos : a.rpos < b.rpos;
  });
  return seeds;
}

}  // namespace

std::vector<Seed> find_seeds(const KmerIndex& index, std::span<const seq::BaseCode> genome,
                             std::span<const seq::BaseCode> read,
                             const SeedingParams& params) {
  const std::vector<std::uint64_t> keys = sampled_keys(read, index.k(), params);
  std::vector<std::span<const std::uint32_t>> runs(keys.size());
  index.lookup_batch(keys, runs);
  return extend_hits(runs, index.k(), genome, read, params);
}

std::vector<Seed> find_seeds(const ShardedKmerIndex& index,
                             std::span<const seq::BaseCode> genome,
                             std::span<const seq::BaseCode> read,
                             const SeedingParams& params) {
  const std::vector<std::uint64_t> keys = sampled_keys(read, index.k(), params);
  std::vector<std::uint32_t> merged;
  std::vector<std::span<const std::uint32_t>> runs(keys.size());
  index.lookup_batch(keys, merged, runs);
  return extend_hits(runs, index.k(), genome, read, params);
}

std::vector<Seed> find_seeds_fm(const FmIndex& index, std::span<const seq::BaseCode> read,
                                const SeedingParams& params) {
  std::vector<Seed> seeds;
  std::set<std::pair<std::int64_t, std::uint32_t>> seen;

  // For each end position (right to left), grow the match leftwards while
  // the backward-search interval stays nonempty; emit the longest match
  // ending there. Greedy SMEM approximation: skip ends interior to the
  // previous reported match to avoid quadratic blowup.
  std::size_t next_allowed_end = read.size();
  for (std::size_t end = read.size(); end > 0; --end) {
    if (end > next_allowed_end) continue;
    if (read[end - 1] >= seq::kAlphabetSize) continue;
    FmIndex::Interval iv = index.whole_text();
    std::size_t start = end;
    FmIndex::Interval last = iv;
    while (start > 0 && read[start - 1] < 4) {
      FmIndex::Interval nxt = index.extend_left(iv, read[start - 1]);
      if (nxt.size() == 0) break;
      iv = nxt;
      --start;
      last = iv;
    }
    std::size_t len = end - start;
    if (len < static_cast<std::size_t>(params.min_seed_len)) continue;
    if (last.size() == 0 || last.size() > params.max_hits) continue;
    for (std::uint32_t rpos :
         index.locate(read.subspan(start, len), params.max_hits)) {
      Seed seed{static_cast<std::uint32_t>(start), rpos, static_cast<std::uint32_t>(len)};
      auto key = std::make_pair(seed.diagonal(), seed.qpos + seed.len);
      if (seen.insert(key).second) seeds.push_back(seed);
    }
    next_allowed_end = start == 0 ? 0 : start + static_cast<std::size_t>(params.min_seed_len) - 1;
    if (next_allowed_end >= end) next_allowed_end = end - 1;
  }
  std::sort(seeds.begin(), seeds.end(), [](const Seed& a, const Seed& b) {
    return a.qpos != b.qpos ? a.qpos < b.qpos : a.rpos < b.rpos;
  });
  return seeds;
}

}  // namespace saloba::seedext
