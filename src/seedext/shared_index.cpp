#include "seedext/shared_index.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "gpusim/multi_device.hpp"
#include "util/check.hpp"
#include "util/checksum.hpp"
#include "util/parallel.hpp"

namespace saloba::seedext {
namespace {

constexpr char kIndexMagic[8] = {'S', 'L', 'B', 'A', 'I', 'D', 'X', '\0'};
constexpr std::uint32_t kFlagKmer = 1u << 0;
constexpr std::uint32_t kFlagFm = 1u << 1;

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  throw IndexFormatError("index file " + path + ": " + why);
}

std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Byte offsets of every section from the start of the payload (the byte
/// after the header), plus the payload's total size. Shared by the writer
/// and the loader so the two can never disagree about geometry.
struct SectionLayout {
  std::size_t keys = 0;
  std::size_t offsets = 0;
  std::size_t entries = 0;
  std::size_t buckets = 0;
  std::size_t bwt = 0;
  std::size_t checkpoints = 0;
  std::size_t sa = 0;
  std::size_t total = 0;
};

/// Bucket-table slots of the k-mer section, from the header's k and key
/// count alone. A header k outside the index's range (rejected before any
/// section is read) sizes an empty table.
std::size_t bucket_slots(const IndexFileHeader& h) {
  if (h.k < KmerIndex::kMinK || h.k > KmerIndex::kMaxK) return 0;
  return (std::size_t{1} << KmerIndex::bucket_bits(static_cast<int>(h.k), h.kmer_keys)) + 1;
}

SectionLayout layout_of(const IndexFileHeader& h) {
  SectionLayout lay;
  std::size_t at = 0;
  if (h.flags & kFlagKmer) {
    lay.keys = at;
    at += h.kmer_keys * sizeof(std::uint64_t);
    lay.offsets = at;
    at += (h.kmer_keys + 1) * sizeof(std::uint32_t);
    lay.entries = at;
    at = align8(at + h.kmer_entries * sizeof(std::uint32_t));
    lay.buckets = at;
    at = align8(at + bucket_slots(h) * sizeof(std::uint32_t));
  }
  if (h.flags & kFlagFm) {
    lay.bwt = at;
    at = align8(at + h.fm_bwt_rows * sizeof(std::uint8_t));
    lay.checkpoints = at;
    at = align8(at + h.fm_checkpoints * sizeof(std::array<std::uint32_t, 6>));
    lay.sa = at;
    at = align8(at + h.fm_sa * sizeof(std::int32_t));
  }
  lay.total = at;
  return lay;
}

std::uint64_t genome_fingerprint(std::span<const seq::BaseCode> genome) {
  return util::fnv1a64_of(genome);
}

std::string canonical_path(const std::string& path) {
  std::error_code ec;
  auto canon = std::filesystem::weakly_canonical(path, ec);
  return ec ? path : canon.string();
}

std::string section_suffix(const IndexOptions& options) {
  std::ostringstream oss;
  oss << ":k=" << options.k << (options.kmer ? ":kmer" : "") << (options.fm ? ":fm" : "");
  return oss.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// SharedIndex
// ---------------------------------------------------------------------------

std::shared_ptr<const SharedIndex> SharedIndex::build(std::span<const seq::BaseCode> genome,
                                                      const IndexOptions& options) {
  SALOBA_CHECK_MSG(options.kmer || options.fm, "index options select no sections");
  auto out = std::shared_ptr<SharedIndex>(new SharedIndex());
  out->options_ = options;
  out->genome_bases_ = genome.size();
  out->genome_checksum_ = genome_fingerprint(genome);
  if (options.kmer) out->kmer_.emplace(genome, options.k);
  if (options.fm) out->fm_.emplace(genome);
  return out;
}

std::shared_ptr<const SharedIndex> SharedIndex::load(const std::string& path,
                                                     std::span<const seq::BaseCode> genome,
                                                     const IndexOptions& options) {
  SALOBA_CHECK_MSG(options.kmer || options.fm, "index options select no sections");
  auto out = std::shared_ptr<SharedIndex>(new SharedIndex());
  try {
    out->map_.emplace(path);
  } catch (const std::runtime_error& e) {
    // A missing or unmappable file is the same class of input error as a
    // corrupted one: reject, don't abort.
    reject(path, e.what());
  }
  std::span<const std::byte> bytes = out->map_->bytes();

  if (bytes.size() < sizeof(IndexFileHeader)) reject(path, "shorter than the header");
  IndexFileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));

  if (std::memcmp(h.magic, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    reject(path, "bad magic (not a saloba index)");
  }
  if (h.version != kIndexFormatVersion) {
    std::ostringstream oss;
    oss << "format version " << h.version << ", this build reads " << kIndexFormatVersion;
    reject(path, oss.str());
  }
  if (h.genome_bases > KmerIndex::kMaxReferenceBases) {
    reject(path, "header reference length exceeds the 32-bit position limit");
  }
  if ((h.flags & kFlagKmer) && (h.k < KmerIndex::kMinK || h.k > KmerIndex::kMaxK)) {
    reject(path, "header k outside [4, 31]");
  }
  if ((h.flags & kFlagFm) && h.checkpoint_every != FmIndex::kCheckpointEvery) {
    reject(path, "FM checkpoint stride mismatch");
  }

  // Geometry first: a truncated file must reject before the checksum walks
  // off the mapping.
  SectionLayout lay = layout_of(h);
  std::span<const std::byte> payload = bytes.subspan(sizeof(h));
  if (payload.size() != lay.total) {
    std::ostringstream oss;
    oss << "payload is " << payload.size() << " bytes, header describes " << lay.total
        << " (truncated or trailing garbage)";
    reject(path, oss.str());
  }
  if (util::fnv1a64_4lane(payload) != h.payload_checksum) {
    reject(path, "payload checksum mismatch (corrupted)");
  }

  // The file is internally consistent; now require it to be *this* genome's
  // index with the sections the caller needs.
  if (h.genome_bases != genome.size() || h.genome_checksum != genome_fingerprint(genome)) {
    reject(path, "built for a different reference (length/fingerprint mismatch)");
  }
  if (options.kmer && !(h.flags & kFlagKmer)) reject(path, "lacks the k-mer section");
  if (options.fm && !(h.flags & kFlagFm)) reject(path, "lacks the FM section");
  if (options.kmer && static_cast<int>(h.k) != options.k) {
    std::ostringstream oss;
    oss << "built with k=" << h.k << ", caller wants k=" << options.k;
    reject(path, oss.str());
  }

  // Validate-and-adopt: spans alias the mapping, zero copy.
  const std::byte* base = payload.data();
  if (options.kmer) {
    std::span<const std::uint64_t> keys(
        reinterpret_cast<const std::uint64_t*>(base + lay.keys), h.kmer_keys);
    std::span<const std::uint32_t> offsets(
        reinterpret_cast<const std::uint32_t*>(base + lay.offsets), h.kmer_keys + 1);
    std::span<const std::uint32_t> entries(
        reinterpret_cast<const std::uint32_t*>(base + lay.entries), h.kmer_entries);
    std::span<const std::uint32_t> buckets(
        reinterpret_cast<const std::uint32_t*>(base + lay.buckets), bucket_slots(h));
    if (offsets.back() != entries.size()) {
      reject(path, "k-mer offsets do not delimit the entry array");
    }
    if (buckets.front() != 0 || buckets.back() != keys.size() ||
        std::adjacent_find(buckets.begin(), buckets.end(), std::greater<>()) != buckets.end()) {
      reject(path, "k-mer bucket table does not partition the key array");
    }
    out->kmer_.emplace(static_cast<int>(h.k), keys, offsets, entries, buckets);
  }
  if (options.fm) {
    std::span<const std::uint8_t> bwt(reinterpret_cast<const std::uint8_t*>(base + lay.bwt),
                                      h.fm_bwt_rows);
    std::span<const std::array<std::uint32_t, 6>> checkpoints(
        reinterpret_cast<const std::array<std::uint32_t, 6>*>(base + lay.checkpoints),
        h.fm_checkpoints);
    std::span<const std::int32_t> sa(reinterpret_cast<const std::int32_t*>(base + lay.sa),
                                     h.fm_sa);
    if (h.fm_bwt_rows != h.genome_bases + 1 ||
        h.fm_checkpoints != h.fm_bwt_rows / FmIndex::kCheckpointEvery + 1 ||
        h.fm_sa != h.genome_bases) {
      reject(path, "FM section geometry inconsistent with the reference length");
    }
    out->fm_.emplace(static_cast<std::size_t>(h.genome_bases),
                     static_cast<std::size_t>(h.fm_primary), bwt, checkpoints, sa);
  }

  out->options_ = options;
  out->genome_bases_ = h.genome_bases;
  out->genome_checksum_ = h.genome_checksum;
  return out;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

void write_shared_index(const std::string& path, std::span<const seq::BaseCode> genome,
                        int k, const KmerIndex* kmer, const FmIndex* fm) {
  SALOBA_CHECK_MSG(kmer != nullptr || fm != nullptr, "nothing to serialize");
  SALOBA_CHECK_MSG(genome.size() <= KmerIndex::kMaxReferenceBases,
                   "reference of " << genome.size()
                                   << " bases overflows the format's 32-bit positions");

  IndexFileHeader h{};
  std::memcpy(h.magic, kIndexMagic, sizeof(kIndexMagic));
  h.version = kIndexFormatVersion;
  h.k = static_cast<std::uint32_t>(k);
  h.genome_bases = genome.size();
  h.genome_checksum = genome_fingerprint(genome);
  if (kmer != nullptr) {
    SALOBA_CHECK_MSG(kmer->k() == k, "k-mer index k " << kmer->k() << " != " << k);
    h.flags |= kFlagKmer;
    h.kmer_keys = kmer->keys().size();
    h.kmer_entries = kmer->entries().size();
  }
  if (fm != nullptr) {
    SALOBA_CHECK_MSG(fm->text_size() == genome.size(),
                     "FM index text size " << fm->text_size() << " != genome size "
                                           << genome.size());
    h.flags |= kFlagFm;
    h.checkpoint_every = FmIndex::kCheckpointEvery;
    h.fm_bwt_rows = fm->bwt().size();
    h.fm_primary = fm->primary();
    h.fm_checkpoints = fm->checkpoints().size();
    h.fm_sa = fm->suffix_array().size();
  }

  SectionLayout lay = layout_of(h);
  std::vector<std::byte> payload(lay.total, std::byte{0});
  auto put = [&](std::size_t at, const void* src, std::size_t bytes) {
    if (bytes > 0) std::memcpy(payload.data() + at, src, bytes);
  };
  if (kmer != nullptr) {
    put(lay.keys, kmer->keys().data(), kmer->keys().size_bytes());
    put(lay.offsets, kmer->offsets().data(), kmer->offsets().size_bytes());
    put(lay.entries, kmer->entries().data(), kmer->entries().size_bytes());
    put(lay.buckets, kmer->buckets().data(), kmer->buckets().size_bytes());
  }
  if (fm != nullptr) {
    put(lay.bwt, fm->bwt().data(), fm->bwt().size_bytes());
    put(lay.checkpoints, fm->checkpoints().data(), fm->checkpoints().size_bytes());
    put(lay.sa, fm->suffix_array().data(), fm->suffix_array().size_bytes());
  }
  h.payload_checksum = util::fnv1a64_4lane(payload);

  // Atomic publish: write a sibling temp file, fsync-free rename into place.
  // A concurrent loader sees either the old file or the complete new one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write index temp file " + tmp);
    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    if (!out) throw std::runtime_error("short write to index temp file " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

void save_shared_index(const std::string& path, std::span<const seq::BaseCode> genome,
                       const IndexOptions& options) {
  SALOBA_CHECK_MSG(options.kmer || options.fm, "index options select no sections");
  std::optional<KmerIndex> kmer;
  std::optional<FmIndex> fm;
  if (options.kmer) kmer.emplace(genome, options.k);
  if (options.fm) fm.emplace(genome);
  write_shared_index(path, genome, options.k, options.kmer ? &*kmer : nullptr,
                     options.fm ? &*fm : nullptr);
}

// ---------------------------------------------------------------------------
// IndexRegistry
// ---------------------------------------------------------------------------

IndexRegistry& IndexRegistry::instance() {
  static IndexRegistry registry;
  return registry;
}

std::shared_ptr<const SharedIndex> IndexRegistry::acquire(
    const std::string& key, const std::function<std::shared_ptr<const SharedIndex>()>& make,
    bool counts_as_build) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(key);
    if (it != live_.end()) {
      if (auto held = it->second.lock()) {
        ++stats_.hits;
        return held;
      }
    }
  }
  // Build/load outside the lock so distinct genomes index concurrently
  // (shard builds fan out through parallel_for). Two racers on one key both
  // do the work; the first to re-lock publishes, the loser adopts the
  // winner's instance.
  std::shared_ptr<const SharedIndex> made = make();
  std::lock_guard<std::mutex> lock(mu_);
  if (counts_as_build) {
    ++stats_.builds;
  } else {
    ++stats_.loads;
  }
  auto it = live_.find(key);
  if (it != live_.end()) {
    if (auto held = it->second.lock()) return held;
  }
  live_[key] = made;
  return made;
}

std::shared_ptr<const SharedIndex> IndexRegistry::acquire_memory(
    std::span<const seq::BaseCode> genome, const IndexOptions& options) {
  std::ostringstream key;
  key << "mem:" << std::hex << genome_fingerprint(genome) << std::dec << ":"
      << genome.size() << section_suffix(options);
  return acquire(
      key.str(), [&] { return SharedIndex::build(genome, options); },
      /*counts_as_build=*/true);
}

std::shared_ptr<const SharedIndex> IndexRegistry::acquire_file(
    const std::string& path, std::span<const seq::BaseCode> genome,
    const IndexOptions& options) {
  const std::string canon = canonical_path(path);
  const std::string key = "file:" + canon + section_suffix(options);
  bool cold = false;
  auto handle = acquire(
      key,
      [&] {
        if (!std::filesystem::exists(path)) {
          save_shared_index(path, genome, options);  // build-once cold start
          cold = true;
        }
        return SharedIndex::load(path, genome, options);
      },
      /*counts_as_build=*/false);
  if (cold) {
    // The cold start built the index before saving it; count that build so
    // stats distinguish build+save+load cold starts from pure warm loads.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.builds;
  }
  return handle;
}

IndexRegistryStats IndexRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void IndexRegistry::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = IndexRegistryStats{};
}

std::size_t IndexRegistry::live_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t live = 0;
  for (const auto& [key, weak] : live_) live += weak.expired() ? 0 : 1;
  return live;
}

// ---------------------------------------------------------------------------
// ShardedKmerIndex
// ---------------------------------------------------------------------------

ShardedKmerIndex::ShardedKmerIndex(std::span<const seq::BaseCode> genome, int k,
                                   const IndexShardingOptions& options)
    : k_(k), genome_bases_(genome.size()) {
  SALOBA_CHECK_MSG(options.shards >= 1, "need at least one shard");
  SALOBA_CHECK_MSG(!genome.empty(), "empty genome");

  // Equal owned ranges; the last shard absorbs the remainder. Shard counts
  // beyond the genome collapse so every shard owns at least one base.
  const std::size_t count = std::min(options.shards, genome.size());
  const std::size_t owned = genome.size() / count;
  shards_.resize(count);
  for (std::size_t s = 0; s < count; ++s) {
    Shard& shard = shards_[s];
    shard.begin = s * owned;
    shard.end = s + 1 == count ? genome.size() : (s + 1) * owned;
    // The k - 1 overlap: a k-mer starting on the last owned base must fit.
    shard.text_end = std::min(genome.size(), shard.end + static_cast<std::size_t>(k) - 1);
  }

  // Heterogeneous placement: shards priced by window length through the
  // same weighted-LPT rule the batch scheduler applies to pair shards.
  std::vector<double> weights = options.lane_weights.empty()
                                    ? std::vector<double>{1.0}
                                    : options.lane_weights;
  std::vector<double> loads;
  loads.reserve(count);
  for (const Shard& s : shards_) loads.push_back(static_cast<double>(s.text_end - s.begin));
  std::vector<int> lanes = gpusim::weighted_lpt_lanes(loads, weights);
  for (std::size_t s = 0; s < count; ++s) shards_[s].lane = lanes[s];

  // Sub-index builds/loads fan out host-parallel; the registry dedups each
  // window against any other sharded mapper over the same reference.
  IndexOptions sub{k, /*kmer=*/true, /*fm=*/false};
  std::exception_ptr failure;
  std::mutex failure_mu;
  util::parallel_for_indexed(count, [&](std::size_t s) {
    try {
      Shard& shard = shards_[s];
      std::span<const seq::BaseCode> window =
          genome.subspan(shard.begin, shard.text_end - shard.begin);
      if (options.path_prefix.empty()) {
        shard.index = IndexRegistry::instance().acquire_memory(window, sub);
      } else {
        shard.index = IndexRegistry::instance().acquire_file(
            options.path_prefix + ".shard" + std::to_string(s), window, sub);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mu);
      if (!failure) failure = std::current_exception();
    }
  });
  if (failure) std::rethrow_exception(failure);
}

std::vector<double> ShardedKmerIndex::lane_loads() const {
  std::vector<double> loads;
  for (const Shard& s : shards_) {
    auto lane = static_cast<std::size_t>(s.lane);
    if (lane >= loads.size()) loads.resize(lane + 1, 0.0);
    loads[lane] += static_cast<double>(s.text_end - s.begin);
  }
  return loads;
}

std::vector<std::uint32_t> ShardedKmerIndex::lookup(
    std::span<const seq::BaseCode> kmer) const {
  std::vector<std::uint32_t> merged;
  if (kmer.size() < static_cast<std::size_t>(k_)) return merged;
  auto packed = KmerIndex::pack_kmer(kmer, k_);
  if (!packed) return merged;
  std::span<const std::uint32_t> run;
  lookup_batch(std::span(&*packed, 1), merged, std::span(&run, 1));
  return merged;
}

void ShardedKmerIndex::lookup_batch(std::span<const std::uint64_t> keys,
                                    std::vector<std::uint32_t>& merged,
                                    std::span<std::span<const std::uint32_t>> runs) const {
  SALOBA_CHECK(runs.size() == keys.size());
  const std::size_t n = keys.size();
  std::vector<std::span<const std::uint32_t>> local(shards_.size() * n);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].index->kmer().lookup_batch(keys, std::span(local).subspan(s * n, n));
  }
  // Each global k-mer start belongs to exactly one shard's owned range, and
  // per-shard hits are ascending — so filtered concatenation in shard order
  // is the monolithic (sorted, duplicate-free) position list.
  merged.clear();
  std::vector<std::size_t> starts(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      for (std::uint32_t pos : local[s * n + i]) {
        const std::size_t global = shards_[s].begin + pos;
        if (global < shards_[s].end) merged.push_back(static_cast<std::uint32_t>(global));
      }
    }
    starts[i + 1] = merged.size();
  }
  for (std::size_t i = 0; i < n; ++i) {
    runs[i] = std::span<const std::uint32_t>(merged).subspan(starts[i], starts[i + 1] - starts[i]);
  }
}

}  // namespace saloba::seedext
