#include "index/block_cache.h"

#include <atomic>
#include <utility>

#include "common/obs.h"

namespace tix::index {

DecodedBlockCache& DecodedBlockCache::Instance() {
  static DecodedBlockCache* const cache = new DecodedBlockCache();
  return *cache;
}

uint64_t DecodedBlockCache::NextListId() {
  // Id 0 is reserved as "never cached" (default-constructed lists).
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void DecodedBlockCache::EvictToShardBudget(Shard& shard) {
  const size_t budget =
      capacity_bytes_.load(std::memory_order_relaxed) / kNumShards;
  while (!shard.lru.empty() &&
         shard.lru.size() * kEntryChargeBytes > budget) {
    shard.map.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
    obs::Count(obs::Counter::kIndexBlockCacheEvictions);
  }
}

void DecodedBlockCache::Configure(size_t capacity_bytes) {
  if (capacity_bytes_.load(std::memory_order_relaxed) == capacity_bytes) {
    return;
  }
  capacity_bytes_.store(capacity_bytes, std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    EvictToShardBudget(shard);
  }
}

DecodedBlockHandle DecodedBlockCache::Lookup(uint64_t list_id,
                                             uint32_t block) {
  // Id 0 is the "never cached" sentinel (see NextListId): a list that
  // was never minted an id (default-constructed) must never read
  // another list's entries, so reject the lookup outright.
  if (list_id == 0) return nullptr;
  const Key key{list_id, block};
  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->data;
}

DecodedBlockHandle DecodedBlockCache::Insert(uint64_t list_id, uint32_t block,
                                             DecodedBlockHandle data) {
  if (list_id == 0) return data;  // sentinel id: pass through unstored
  if (capacity_bytes_.load(std::memory_order_relaxed) / kNumShards <
      kEntryChargeBytes) {
    return data;  // cache disabled (or too small for one entry per shard)
  }
  const Key key{list_id, block};
  Shard& shard = ShardFor(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // A racing decoder of the same block won; use its copy.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->data;
  }
  shard.lru.push_front(Entry{key, data});  // shares ownership with `data`
  shard.map.emplace(key, shard.lru.begin());
  ++shard.inserts;
  EvictToShardBudget(shard);
  // Return the caller's handle rather than the resident entry: a
  // concurrent Configure shrink may evict even the fresh insert, and the
  // caller's copy stays valid either way.
  return data;
}

BlockCacheStats DecodedBlockCache::Stats() const {
  BlockCacheStats out;
  out.capacity_bytes = capacity_bytes_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.inserts += shard.inserts;
    out.evictions += shard.evictions;
    out.entries += shard.lru.size();
  }
  out.bytes = out.entries * kEntryChargeBytes;
  return out;
}

void DecodedBlockCache::Clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.map.clear();
  }
}

}  // namespace tix::index
