#ifndef SMARTDD_CACHE_EXPANSION_CACHE_H_
#define SMARTDD_CACHE_EXPANSION_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "core/score.h"

namespace smartdd::cache {

/// The memoized result of one completed greedy expansion. The BRS loop
/// streams rules in greedy selection order but the final child list is
/// weight-sorted and re-scored in one exact pass, so the two sequences
/// genuinely differ — replaying both byte-identical to the cold run
/// requires memoizing both.
struct CachedExpansion {
  /// Streamed steps, greedy selection order (what OnStep observers saw).
  std::vector<ScoredRule> steps;
  /// Final children, display order, with exact masses/marginals (what the
  /// tree got).
  std::vector<ScoredRule> rules;
  /// The expanded rule's re-measured mass.
  double base_mass = 0;
};

struct ExpansionCacheOptions {
  /// Byte budget across all shards (approximate accounting: key bytes +
  /// per-rule payload). 0 disables caching entirely.
  size_t max_bytes = 32u << 20;
  /// LRU shard count (keys hash-partitioned to spread lock contention).
  size_t shards = 8;
};

/// Cross-session memoized expansion cache: sharded LRU with a byte budget
/// and single-flight per key.
///
/// Key anatomy (built by ExplorationService::BuildCacheKey, opaque here):
/// every input that can change the expansion's bytes —
///
///   dataset | table-version | k | max_weight | measure | node rule |
///   star column
///
/// (the dataset name pins the weight function, fixed at registration) and
/// *nothing* that cannot: num_threads and num_shards are excluded because
/// the engine's determinism contract makes the result byte-identical across
/// them, and across the per-process scan-kernel path — which is exactly
/// what lets a scalar 1-shard backend hit on an entry computed by an AVX2
/// 8-thread one. Entries never invalidate by scan: a table append bumps
/// the version, new keys simply stop matching, and stale entries age out of
/// the LRU.
///
/// Single-flight: when N sessions request the same missing key
/// concurrently, one becomes the leader (LookupOrBegin returns nullptr) and
/// computes; the other N-1 block until the leader calls
/// Complete (they get the entry) or Abandon (they re-race for leadership).
/// One scan serves all N.
///
/// Metrics (all under /metrics):
///   smartdd_expansion_cache_hits_total / _misses_total / _evictions_total
///   smartdd_expansion_cache_singleflight_waits_total
///   smartdd_expansion_cache_bytes / _entries
class ExpansionCache {
 public:
  explicit ExpansionCache(ExpansionCacheOptions options = {});

  ExpansionCache(const ExpansionCache&) = delete;
  ExpansionCache& operator=(const ExpansionCache&) = delete;

  /// Hit: returns the entry (touches LRU recency), after waiting out an
  /// in-flight computation of the same key. Miss: returns nullptr, and the
  /// caller is the key's leader (also after a waited-on leader abandoned).
  /// A leader MUST eventually call Complete or Abandon with the same key or
  /// waiters block until process exit. A disabled cache always misses and
  /// tracks no flights.
  std::shared_ptr<const CachedExpansion> LookupOrBegin(const std::string& key);

  /// Plain lookup without single-flight (no leadership, never blocks).
  std::shared_ptr<const CachedExpansion> Lookup(const std::string& key);

  /// Publishes the leader's computed entry and releases waiters.
  void Complete(const std::string& key,
                std::shared_ptr<const CachedExpansion> value);

  /// Releases waiters without publishing (the computation failed, was
  /// cancelled, or produced a partial result that must not be memoized).
  void Abandon(const std::string& key);

  bool enabled() const { return options_.max_bytes > 0; }

  size_t bytes() const;
  size_t entries() const;
  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t evictions() const { return evictions_.value(); }
  uint64_t singleflight_waits() const { return waits_.value(); }

  /// Approximate resident bytes of one entry (exposed for test assertions
  /// about the eviction arithmetic).
  static size_t EntryBytes(const std::string& key, const CachedExpansion& v);

 private:
  struct LruItem {
    std::string key;
    std::shared_ptr<const CachedExpansion> value;
    size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<LruItem> lru;  ///< front = most recent
    std::unordered_map<std::string, std::list<LruItem>::iterator> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key);
  std::shared_ptr<const CachedExpansion> LookupIn(Shard& shard,
                                                  const std::string& key);

  ExpansionCacheOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex flights_mu_;
  std::condition_variable flights_cv_;
  std::unordered_set<std::string> flights_;

  Counter& hits_;
  Counter& misses_;
  Counter& evictions_;
  Counter& waits_;
  Gauge& bytes_gauge_;
  Gauge& entries_gauge_;
};

}  // namespace smartdd::cache

#endif  // SMARTDD_CACHE_EXPANSION_CACHE_H_
