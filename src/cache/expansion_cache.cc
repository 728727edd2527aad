#include "cache/expansion_cache.h"

#include <utility>

#include "common/hash.h"

namespace smartdd::cache {

ExpansionCache::ExpansionCache(ExpansionCacheOptions options)
    : options_(options),
      hits_(MetricsRegistry::Default().GetCounter(
          "smartdd_expansion_cache_hits_total",
          "Expand requests answered from the expansion cache")),
      misses_(MetricsRegistry::Default().GetCounter(
          "smartdd_expansion_cache_misses_total",
          "Expand requests that had to run the greedy scan")),
      evictions_(MetricsRegistry::Default().GetCounter(
          "smartdd_expansion_cache_evictions_total",
          "Entries evicted to stay under the cache byte budget")),
      waits_(MetricsRegistry::Default().GetCounter(
          "smartdd_expansion_cache_singleflight_waits_total",
          "Expand requests that waited behind an identical in-flight "
          "expansion instead of scanning")),
      bytes_gauge_(MetricsRegistry::Default().GetGauge(
          "smartdd_expansion_cache_bytes",
          "Approximate resident bytes of cached expansions")),
      entries_gauge_(MetricsRegistry::Default().GetGauge(
          "smartdd_expansion_cache_entries",
          "Number of cached expansions")) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ExpansionCache::EntryBytes(const std::string& key,
                                  const CachedExpansion& v) {
  size_t bytes = sizeof(LruItem) + key.size() + sizeof(CachedExpansion);
  for (const ScoredRule& r : v.steps) {
    bytes += sizeof(ScoredRule) + r.rule.values().size() * sizeof(uint32_t);
  }
  for (const ScoredRule& r : v.rules) {
    bytes += sizeof(ScoredRule) + r.rule.values().size() * sizeof(uint32_t);
  }
  return bytes;
}

ExpansionCache::Shard& ExpansionCache::ShardFor(const std::string& key) {
  uint64_t h = HashBytes(key.data(), key.size());
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const CachedExpansion> ExpansionCache::LookupIn(
    Shard& shard, const std::string& key) {
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

std::shared_ptr<const CachedExpansion> ExpansionCache::Lookup(
    const std::string& key) {
  if (!enabled()) return nullptr;
  auto value = LookupIn(ShardFor(key), key);
  if (value != nullptr) {
    hits_.Inc();
  } else {
    misses_.Inc();
  }
  return value;
}

std::shared_ptr<const CachedExpansion> ExpansionCache::LookupOrBegin(
    const std::string& key) {
  if (!enabled()) return nullptr;
  Shard& shard = ShardFor(key);
  for (;;) {
    if (auto value = LookupIn(shard, key)) {
      hits_.Inc();
      return value;
    }
    std::unique_lock<std::mutex> lock(flights_mu_);
    // Re-check under the flights lock: a leader may have Completed between
    // our shard lookup and here, in which case its key already left the
    // set and the entry is in the shard.
    if (flights_.insert(key).second) {
      misses_.Inc();
      return nullptr;  // caller is the leader
    }
    waits_.Inc();
    flights_cv_.wait(lock, [this, &key]() { return !flights_.count(key); });
    // Leader finished: loop to pick up its entry, or (if it abandoned)
    // race for leadership ourselves.
  }
}

void ExpansionCache::Complete(const std::string& key,
                              std::shared_ptr<const CachedExpansion> value) {
  if (enabled() && value != nullptr) {
    Shard& shard = ShardFor(key);
    size_t entry_bytes = EntryBytes(key, *value);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.bytes -= it->second->bytes;
      bytes_gauge_.Sub(static_cast<int64_t>(it->second->bytes));
      entries_gauge_.Sub(1);
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    shard.lru.push_front({key, std::move(value), entry_bytes});
    shard.index[key] = shard.lru.begin();
    shard.bytes += entry_bytes;
    bytes_gauge_.Add(static_cast<int64_t>(entry_bytes));
    entries_gauge_.Add(1);
    // Per-shard budget: the global byte budget split evenly. Evict from the
    // cold end until this shard fits (a one-entry shard may exceed its
    // slice; a single giant entry still caches).
    size_t shard_budget = options_.max_bytes / shards_.size();
    if (shard_budget == 0) shard_budget = 1;
    while (shard.bytes > shard_budget && shard.lru.size() > 1) {
      LruItem& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      bytes_gauge_.Sub(static_cast<int64_t>(victim.bytes));
      entries_gauge_.Sub(1);
      evictions_.Inc();
      shard.index.erase(victim.key);
      shard.lru.pop_back();
    }
  }
  std::lock_guard<std::mutex> lock(flights_mu_);
  flights_.erase(key);
  flights_cv_.notify_all();
}

void ExpansionCache::Abandon(const std::string& key) {
  std::lock_guard<std::mutex> lock(flights_mu_);
  flights_.erase(key);
  flights_cv_.notify_all();
}

size_t ExpansionCache::bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->bytes;
  }
  return total;
}

size_t ExpansionCache::entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace smartdd::cache
