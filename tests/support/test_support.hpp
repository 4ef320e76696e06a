// Shared helpers for the test suites: deterministic random sequences and
// pair batches.
#pragma once

#include <cstdint>
#include <vector>

#include "seq/alphabet.hpp"
#include "seq/sequence.hpp"
#include "util/rng.hpp"

namespace saloba::testing {

/// Random ACGT sequence (no N).
inline std::vector<seq::BaseCode> random_seq(util::Xoshiro256& rng, std::size_t len) {
  std::vector<seq::BaseCode> out(len);
  for (auto& b : out) b = static_cast<seq::BaseCode>(rng.below(4));
  return out;
}

/// Random sequence over the full alphabet, with `n_prob` chance of N.
inline std::vector<seq::BaseCode> random_seq_with_n(util::Xoshiro256& rng, std::size_t len,
                                                    double n_prob = 0.05) {
  std::vector<seq::BaseCode> out(len);
  for (auto& b : out) {
    b = rng.bernoulli(n_prob) ? seq::kBaseN : static_cast<seq::BaseCode>(rng.below(4));
  }
  return out;
}

/// A mutated copy: substitutions only, rate `p`.
inline std::vector<seq::BaseCode> mutate(util::Xoshiro256& rng,
                                         const std::vector<seq::BaseCode>& src, double p) {
  auto out = src;
  for (auto& b : out) {
    if (rng.bernoulli(p)) b = static_cast<seq::BaseCode>(rng.below(4));
  }
  return out;
}

/// Batch of related pairs (query ~ mutated ref) with equal lengths.
inline seq::PairBatch related_batch(std::uint64_t seed, std::size_t pairs, std::size_t qlen,
                                    std::size_t rlen, bool with_n = false) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  for (std::size_t p = 0; p < pairs; ++p) {
    auto ref = with_n ? random_seq_with_n(rng, rlen) : random_seq(rng, rlen);
    std::vector<seq::BaseCode> query;
    if (qlen <= rlen) {
      // Overlap the query with part of the reference so alignments score.
      query.assign(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(qlen));
      query = mutate(rng, query, 0.08);
    } else {
      query = with_n ? random_seq_with_n(rng, qlen) : random_seq(rng, qlen);
    }
    batch.add(std::move(query), std::move(ref));
  }
  return batch;
}

/// Batch with wildly varying lengths (workload-imbalance shape).
inline seq::PairBatch imbalanced_batch(std::uint64_t seed, std::size_t pairs,
                                       std::size_t min_len, std::size_t max_len) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  for (std::size_t p = 0; p < pairs; ++p) {
    std::size_t qlen = min_len + rng.below(max_len - min_len + 1);
    std::size_t rlen = min_len + rng.below(max_len - min_len + 1);
    batch.add(random_seq(rng, qlen), random_seq(rng, rlen));
  }
  return batch;
}

/// Short related pairs (80-199 bp) interleaved with long ones just over
/// `long_min` bases (every third slot until `longs` are placed): the shape a
/// long-read routing threshold of `long_min` splits into both engines.
inline seq::PairBatch mixed_batch(std::uint64_t seed, std::size_t shorts, std::size_t longs,
                                  std::size_t long_min) {
  util::Xoshiro256 rng(seed);
  seq::PairBatch batch;
  const std::size_t total = shorts + longs;
  std::size_t longs_left = longs;
  for (std::size_t p = 0; p < total; ++p) {
    const bool make_long = longs_left > 0 && (p % 3 == 1 || total - p <= longs_left);
    if (make_long) --longs_left;
    std::size_t rlen = make_long ? long_min + 200 + rng.below(300) : 80 + rng.below(120);
    auto ref = random_seq(rng, rlen);
    std::size_t qlen = rlen - rng.below(rlen / 4);
    std::vector<seq::BaseCode> query(ref.begin(),
                                     ref.begin() + static_cast<std::ptrdiff_t>(qlen));
    query = mutate(rng, query, 0.06);
    batch.add(std::move(query), std::move(ref));
  }
  return batch;
}

}  // namespace saloba::testing
