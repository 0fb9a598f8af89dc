#ifndef TIX_INDEX_BLOCK_CACHE_H_
#define TIX_INDEX_BLOCK_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/macros.h"
#include "index/inverted_index.h"

/// \file
/// The decoded-block cache: a bounded, sharded LRU map from
/// (posting list, block number) to a decoded 128-posting block, shared
/// read-only by every query thread in the process. Hot terms amortize
/// varint decode across queries; cold lists cost nothing beyond their
/// compressed bytes. Entries are handed out as shared_ptrs, so an
/// eviction never invalidates a block a cursor is still reading.
///
/// Lists are keyed by `PostingList::cache_id`, a process-unique id
/// minted from a monotone counter when a list is compressed or loaded —
/// never by pointer, so a freed-and-reused list address can never alias
/// a stale cache entry.

namespace tix::index {

/// Default capacity applied by QueryEngine when EngineOptions does not
/// override it (tix_cli --block-cache-mb).
inline constexpr size_t kDefaultBlockCacheBytes = 16u << 20;

/// One decoded skip block. Fixed-size: the final, shorter block of a
/// list simply leaves the tail unused (the cursor clamps to the list
/// length), trading a few bytes for a uniform allocation size.
struct DecodedBlock {
  std::array<Posting, kSkipInterval> postings;
};

using DecodedBlockHandle = std::shared_ptr<const DecodedBlock>;

struct BlockCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;  ///< Charged bytes currently resident.
  uint64_t capacity_bytes = 0;
};

class DecodedBlockCache {
 public:
  /// The process-wide cache (posting lists are shared read-only across
  /// queries, so their decoded blocks are too).
  static DecodedBlockCache& Instance();

  /// Mints a fresh list id for PostingList::cache_id. Never reused, so
  /// entries of a destroyed index age out of the LRU naturally instead
  /// of needing a purge hook. Id 0 is never minted: it is the "never
  /// cached" sentinel carried by default-constructed and empty lists,
  /// and the cache rejects it (Lookup misses, Insert passes through
  /// unstored) so a reset list cannot alias another list's entries.
  static uint64_t NextListId();

  /// Sets the capacity, evicting LRU entries if it shrank. Equal
  /// capacity is a cheap no-op, so every QueryEngine construction may
  /// call this. Capacity 0 disables the cache (Lookup misses, Insert
  /// passes blocks through unstored).
  void Configure(size_t capacity_bytes);
  size_t capacity_bytes() const {
    return capacity_bytes_.load(std::memory_order_relaxed);
  }

  /// The cached block, or nullptr on miss.
  DecodedBlockHandle Lookup(uint64_t list_id, uint32_t block);

  /// Inserts a freshly decoded block and returns the resident handle.
  /// If a racing thread inserted the same block first, the winner's
  /// handle is returned (both are decoded from the same bytes, so the
  /// contents are identical); the loser's allocation is simply dropped.
  /// Charges obs::kIndexBlockCacheEvictions for each entry pushed out.
  DecodedBlockHandle Insert(uint64_t list_id, uint32_t block,
                            DecodedBlockHandle data);

  /// Aggregated over all shards; counters are monotone since process
  /// start (Configure does not reset them).
  BlockCacheStats Stats() const;

  /// Drops every entry (tests). Counters keep their values.
  void Clear();

 private:
  DecodedBlockCache() = default;
  TIX_DISALLOW_COPY_AND_ASSIGN(DecodedBlockCache);

  struct Key {
    uint64_t list_id = 0;
    uint32_t block = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // splitmix-style mix of the two fields.
      uint64_t x = key.list_id * 0x9e3779b97f4a7c15ULL + key.block;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  struct Entry {
    Key key;
    DecodedBlockHandle data;
  };
  /// LRU order: front = most recent. The map points into the list.
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
  };

  static constexpr size_t kNumShards = 16;
  /// Charged per entry: the block itself plus an allowance for the map
  /// node, list node and control block.
  static constexpr size_t kEntryChargeBytes = sizeof(DecodedBlock) + 96;

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash{}(key)&(kNumShards - 1)];
  }
  /// Evicts from `shard` until it is within its slice of the capacity.
  /// Caller holds shard.mu.
  void EvictToShardBudget(Shard& shard);

  std::array<Shard, kNumShards> shards_;
  std::atomic<size_t> capacity_bytes_{kDefaultBlockCacheBytes};
};

}  // namespace tix::index

#endif  // TIX_INDEX_BLOCK_CACHE_H_
