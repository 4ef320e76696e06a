// Genome-scale shared index: build-once, mmap-shared, reference-sharded.
//
// At service scale the reference is the invariant and reads are the traffic,
// yet every ReadMapper used to rebuild its k-mer/FM index from scratch. This
// layer makes indices
//   * serializable — a versioned, checksummed on-disk format holding the
//     flat index arrays verbatim (load is a validate-and-adopt, no rebuild);
//   * mmap-shared — a read-only loader whose spans alias the mapping with
//     zero copy, behind refcounted SharedIndex handles that an in-process
//     registry deduplicates by (path, k) / (genome fingerprint, k), so every
//     Pipeline / ReadMapper::map_session tenant over one reference shares
//     one physical index;
//   * shardable — a chromosome-scale genome partitioned into overlapping
//     windows with one sub-index per shard, placed across heterogeneous
//     lanes by the PR 3 weighted-LPT machinery, whose merged lookups are
//     bit-identical to the monolithic index.
//
// On-disk format, version 2 (little-endian, all sections 8-byte aligned):
//   IndexFileHeader   magic "SLBAIDX\0", version, flags (kmer/FM sections),
//                     k, FM checkpoint stride, genome length + FNV-1a
//                     fingerprint (util::fnv1a64), payload checksum
//                     (util::fnv1a64_4lane over every byte after the
//                     header), section element counts.
//                     genome length is stored as u64 but must not exceed
//                     KmerIndex::kMaxReferenceBases — positions are 32-bit
//                     on disk as in memory; larger references must shard.
//   k-mer section     keys (u64), offsets (u32, keys+1), entries (u32),
//                     bucket table (u32, 2^KmerIndex::bucket_bits(k, keys)
//                     + 1) — exactly KmerIndex's arrays. The table's size
//                     follows from the header's k and key count; the loader
//                     checks it starts at 0, never decreases and ends at
//                     the key count. It is stored, never derived at load.
//   FM section        BWT codes (u8, n+1 rows), occurrence checkpoints
//                     (6 x u32 each), suffix array (i32) — exactly
//                     FmIndex's arrays; `first_` is derived on load.
// Version 1 files (no bucket table, one-lane payload checksum) are rejected
// with IndexFormatError; a caller that caches an index rebuilds it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "seedext/fm_index.hpp"
#include "seedext/kmer_index.hpp"
#include "seq/alphabet.hpp"
#include "util/mmap_file.hpp"

namespace saloba::seedext {

/// Malformed, corrupted, or mismatched index files reject with this (not a
/// CHECK abort: a stale cache file is an input error, not a program bug).
class IndexFormatError : public std::runtime_error {
 public:
  explicit IndexFormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Which indices a SharedIndex carries, and for what k.
struct IndexOptions {
  int k = 16;
  bool kmer = true;  ///< build/serialize the k-mer section
  bool fm = false;   ///< build/serialize the FM/suffix-array section
};

/// Fixed header of the on-disk format. Trivially copyable by design — it is
/// written and mapped verbatim.
struct IndexFileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;  ///< bit 0: k-mer section, bit 1: FM section
  std::uint32_t k;
  std::uint32_t checkpoint_every;  ///< FM occ stride (0 without an FM section)
  std::uint64_t genome_bases;     ///< reference length; <= KmerIndex::kMaxReferenceBases
  std::uint64_t genome_checksum;  ///< util::fnv1a64 over the reference bytes
  std::uint64_t payload_checksum; ///< util::fnv1a64_4lane over everything after this header
  std::uint64_t kmer_keys;
  std::uint64_t kmer_entries;
  std::uint64_t fm_bwt_rows;
  std::uint64_t fm_primary;
  std::uint64_t fm_checkpoints;
  std::uint64_t fm_sa;
};
static_assert(sizeof(IndexFileHeader) == 96, "on-disk header layout is part of the format");

inline constexpr std::uint32_t kIndexFormatVersion = 2;

/// One immutable, shareable reference index: a k-mer and/or FM index either
/// built in memory or adopted zero-copy from a read-only mapping (which the
/// handle keeps alive). Handles are created through the factories / the
/// IndexRegistry and passed around as shared_ptr<const SharedIndex>; the
/// last owner unmaps.
class SharedIndex {
 public:
  /// Builds the requested indices in memory.
  static std::shared_ptr<const SharedIndex> build(std::span<const seq::BaseCode> genome,
                                                  const IndexOptions& options);

  /// Maps `path` read-only and adopts its arrays with zero copy, after
  /// validating magic, version, payload checksum, section geometry, and
  /// that the file was built for `genome` (length + fingerprint) with
  /// `options.k` and the requested sections. Throws IndexFormatError.
  static std::shared_ptr<const SharedIndex> load(const std::string& path,
                                                 std::span<const seq::BaseCode> genome,
                                                 const IndexOptions& options);

  int k() const { return options_.k; }
  const IndexOptions& options() const { return options_; }
  bool has_kmer() const { return kmer_.has_value(); }
  bool has_fm() const { return fm_.has_value(); }
  const KmerIndex& kmer() const { return *kmer_; }
  const FmIndex& fm() const { return *fm_; }
  bool mmap_backed() const { return map_.has_value(); }
  std::size_t genome_bases() const { return genome_bases_; }
  std::uint64_t genome_checksum() const { return genome_checksum_; }

 private:
  SharedIndex() = default;

  IndexOptions options_;
  std::size_t genome_bases_ = 0;
  std::uint64_t genome_checksum_ = 0;
  std::optional<util::MmapFile> map_;  ///< backing pages of adopted spans
  std::optional<KmerIndex> kmer_;
  std::optional<FmIndex> fm_;
};

/// Serializes already-built indices for `genome` to `path` (at least one of
/// `kmer`/`fm` non-null). The write is atomic: a temp file in the target
/// directory is renamed into place, so a concurrent loader never sees a
/// half-written index.
void write_shared_index(const std::string& path, std::span<const seq::BaseCode> genome,
                        int k, const KmerIndex* kmer, const FmIndex* fm);

/// Build-and-write convenience (the cold path of the amortization story).
void save_shared_index(const std::string& path, std::span<const seq::BaseCode> genome,
                       const IndexOptions& options);

/// What the registry has done since construction / reset_stats().
struct IndexRegistryStats {
  std::size_t builds = 0;  ///< index constructions (in-memory + cold-start saves)
  std::size_t loads = 0;   ///< mmap file loads
  std::size_t hits = 0;    ///< acquisitions served by a live shared instance
};

/// In-process registry of live SharedIndex instances, keyed by
/// (canonical path, k, sections) for file-backed indices and by
/// (genome fingerprint, length, k, sections) for in-memory ones. Entries
/// are weak: the registry never extends an index's lifetime, it only
/// deduplicates concurrent users — when the last ReadMapper/tenant releases
/// its handle the index is freed, and the next acquire rebuilds/reloads.
class IndexRegistry {
 public:
  static IndexRegistry& instance();

  /// The shared in-memory index for (genome, options): returns the live one
  /// if some other owner holds it, builds and registers otherwise.
  std::shared_ptr<const SharedIndex> acquire_memory(std::span<const seq::BaseCode> genome,
                                                    const IndexOptions& options);

  /// The shared mmap-backed index for (path, options): returns the live
  /// mapping if one is held, loads otherwise — and when the file does not
  /// exist yet, builds from `genome`, saves, and loads (build-once).
  std::shared_ptr<const SharedIndex> acquire_file(const std::string& path,
                                                  std::span<const seq::BaseCode> genome,
                                                  const IndexOptions& options);

  IndexRegistryStats stats() const;
  void reset_stats();
  std::size_t live_entries() const;  ///< live (non-expired) registered indices

 private:
  std::shared_ptr<const SharedIndex> acquire(
      const std::string& key, const std::function<std::shared_ptr<const SharedIndex>()>& make,
      bool counts_as_build);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<const SharedIndex>> live_;
  IndexRegistryStats stats_;
};

/// Reference sharding of the k-mer seeding path. The genome is cut into
/// `shards` equal owned ranges; shard s additionally sees the next k - 1
/// bases (the overlap), so every k-mer start position belongs to exactly
/// one shard and merged lookups reproduce the monolithic index exactly.
struct IndexShardingOptions {
  std::size_t shards = 1;
  /// Heterogeneous lane weights for shard placement (gpusim weighted LPT,
  /// shards priced by window length). Empty = one lane.
  std::vector<double> lane_weights;
  /// Non-empty: each shard's sub-index is persisted at
  /// "<path_prefix>.shard<i>" and acquired through the registry (mmap), so
  /// sharded cold starts amortize exactly like monolithic ones.
  std::string path_prefix;
};

class ShardedKmerIndex {
 public:
  struct Shard {
    std::size_t begin = 0;     ///< first owned base
    std::size_t end = 0;       ///< one past the last owned k-mer start
    std::size_t text_end = 0;  ///< window end including the k - 1 overlap
    int lane = 0;              ///< weighted-LPT placement
    std::shared_ptr<const SharedIndex> index;  ///< k-mer sub-index over [begin, text_end)
  };

  ShardedKmerIndex(std::span<const seq::BaseCode> genome, int k,
                   const IndexShardingOptions& options);

  int k() const { return k_; }
  std::size_t genome_bases() const { return genome_bases_; }
  const std::vector<Shard>& shards() const { return shards_; }
  /// Sum of shard window loads per lane (placement diagnostics / tests).
  std::vector<double> lane_loads() const;

  /// Merged global positions of the k-mer — bit-identical (same positions,
  /// same ascending order) to the monolithic KmerIndex::lookup.
  std::vector<std::uint32_t> lookup(std::span<const seq::BaseCode> kmer) const;

  /// KmerIndex::lookup_batch's merged form: every shard looks all keys up
  /// in one batch, then key i's merged global positions go to runs[i], a
  /// view into `merged` (one buffer for the whole batch, overwritten here;
  /// the views stay valid until the caller next changes it).
  void lookup_batch(std::span<const std::uint64_t> keys, std::vector<std::uint32_t>& merged,
                    std::span<std::span<const std::uint32_t>> runs) const;

 private:
  int k_;
  std::size_t genome_bases_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace saloba::seedext
