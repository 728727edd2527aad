// Expansion-cache suite: LRU byte-budget eviction arithmetic (EntryBytes
// is the accounting unit), single-flight leadership (Complete releases
// waiters with the entry, Abandon makes them re-race), the hit/miss/evict/
// wait counters, service-level single-flight (N concurrent identical
// expands cost one scan), and the differential contract — the hit path
// replays responses AND step streams byte-identical to the cold path
// across {shards 1,4} x {threads 1,8} x {every kernel path the host has},
// because the cache key deliberately excludes all three execution knobs.

#include "cache/expansion_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "api/codec.h"
#include "api/dto.h"
#include "api/service.h"
#include "core/scan_kernels.h"
#include "data/synth.h"
#include "rules/rule.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using cache::CachedExpansion;
using cache::ExpansionCache;
using cache::ExpansionCacheOptions;

/// An entry whose EntryBytes is controlled by the rule count.
std::shared_ptr<const CachedExpansion> MakeEntry(size_t num_rules) {
  auto entry = std::make_shared<CachedExpansion>();
  for (size_t i = 0; i < num_rules; ++i) {
    ScoredRule sr;
    sr.rule = Rule::Trivial(3);
    sr.weight = static_cast<double>(i);
    entry->rules.push_back(sr);
  }
  entry->base_mass = 100;
  return entry;
}

/// Inserts `key` through the single-flight protocol (the only write path).
void Insert(ExpansionCache& cache, const std::string& key,
            std::shared_ptr<const CachedExpansion> value) {
  ASSERT_EQ(cache.LookupOrBegin(key), nullptr);
  cache.Complete(key, std::move(value));
}

TEST(ExpansionCacheTest, MissThenHitBumpsCounters) {
  ExpansionCache cache;
  uint64_t hits = cache.hits(), misses = cache.misses();
  EXPECT_EQ(cache.LookupOrBegin("k"), nullptr);
  EXPECT_EQ(cache.misses(), misses + 1);
  cache.Complete("k", MakeEntry(2));

  auto hit = cache.Lookup("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rules.size(), 2u);
  EXPECT_EQ(cache.hits(), hits + 1);
  EXPECT_EQ(cache.LookupOrBegin("k"), hit);
  EXPECT_EQ(cache.hits(), hits + 2);
  EXPECT_EQ(cache.misses(), misses + 1);
}

TEST(ExpansionCacheTest, EvictionArithmeticFollowsEntryBytes) {
  size_t entry_bytes = ExpansionCache::EntryBytes("k1", *MakeEntry(4));
  // Room for exactly two entries (all keys the same length, same payload
  // shape, one shard: the budget math is exact).
  ExpansionCacheOptions options;
  options.shards = 1;
  options.max_bytes = 2 * entry_bytes;
  ExpansionCache cache(options);
  uint64_t evictions = cache.evictions();

  Insert(cache, "k1", MakeEntry(4));
  EXPECT_EQ(cache.bytes(), entry_bytes);
  Insert(cache, "k2", MakeEntry(4));
  EXPECT_EQ(cache.bytes(), 2 * entry_bytes);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), evictions);

  // The third entry busts the budget: the least recently used (k1) goes.
  Insert(cache, "k3", MakeEntry(4));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), 2 * entry_bytes);
  EXPECT_EQ(cache.evictions(), evictions + 1);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_NE(cache.Lookup("k2"), nullptr);
  EXPECT_NE(cache.Lookup("k3"), nullptr);

  // A hit refreshes recency: touching k2 sacrifices k3 on the next insert.
  ASSERT_NE(cache.Lookup("k2"), nullptr);
  Insert(cache, "k4", MakeEntry(4));
  EXPECT_EQ(cache.Lookup("k3"), nullptr);
  EXPECT_NE(cache.Lookup("k2"), nullptr);
  EXPECT_NE(cache.Lookup("k4"), nullptr);
  EXPECT_EQ(cache.evictions(), evictions + 2);
}

TEST(ExpansionCacheTest, OversizedEntryEvictsEverythingButStillLands) {
  ExpansionCacheOptions options;
  options.shards = 1;
  options.max_bytes = ExpansionCache::EntryBytes("small", *MakeEntry(1));
  ExpansionCache cache(options);
  Insert(cache, "small", MakeEntry(1));
  EXPECT_EQ(cache.entries(), 1u);
  // An entry bigger than the whole budget: everything else is evicted and
  // the newcomer is resident (it is the most recent by definition) — the
  // budget is advisory for a single oversized entry, never a reason to
  // serve nothing.
  Insert(cache, "huge", MakeEntry(64));
  EXPECT_EQ(cache.Lookup("small"), nullptr);
  EXPECT_NE(cache.Lookup("huge"), nullptr);
}

TEST(ExpansionCacheTest, ZeroBudgetDisablesEverything) {
  ExpansionCacheOptions options;
  options.max_bytes = 0;
  ExpansionCache cache(options);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.LookupOrBegin("k"), nullptr);
  cache.Complete("k", MakeEntry(1));
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ExpansionCacheTest, SingleFlightOneLeaderManyWaiters) {
  ExpansionCache cache;
  uint64_t waits = cache.singleflight_waits();
  ASSERT_EQ(cache.LookupOrBegin("sf"), nullptr);

  constexpr int kWaiters = 4;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CachedExpansion>> got(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&, i]() { got[i] = cache.LookupOrBegin("sf"); });
  }
  // The waits counter increments before a waiter blocks, so polling it
  // makes the rendezvous deterministic: Complete fires only once all four
  // are provably parked behind the in-flight key.
  while (cache.singleflight_waits() < waits + kWaiters) {
    std::this_thread::yield();
  }
  cache.Complete("sf", MakeEntry(3));
  for (auto& t : threads) t.join();

  for (int i = 0; i < kWaiters; ++i) {
    // A non-null return is the entry: the waiter did not become a leader.
    ASSERT_NE(got[i], nullptr) << "waiter " << i << " should not lead";
    EXPECT_EQ(got[i]->rules.size(), 3u);
  }
  EXPECT_EQ(cache.singleflight_waits(), waits + kWaiters);
}

TEST(ExpansionCacheTest, AbandonMakesWaitersReRaceForLeadership) {
  ExpansionCache cache;
  uint64_t waits = cache.singleflight_waits();
  ASSERT_EQ(cache.LookupOrBegin("ab"), nullptr);

  std::shared_ptr<const CachedExpansion> got;
  std::thread waiter([&]() {
    got = cache.LookupOrBegin("ab");
    // The abandoned flight promoted this waiter to leader (a null return):
    // it must compute and publish (or abandon) itself.
    if (got == nullptr) cache.Complete("ab", MakeEntry(5));
  });
  while (cache.singleflight_waits() < waits + 1) std::this_thread::yield();
  cache.Abandon("ab");
  waiter.join();

  EXPECT_EQ(got, nullptr);
  auto published = cache.Lookup("ab");
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->rules.size(), 5u);
}

// --- Service-level integration --------------------------------------

/// `with_measure` adds a "value" measure column for Sum sessions.
Table SynthBase(bool with_measure = false) {
  SynthSpec spec;
  spec.rows = 30000;
  spec.cardinalities = {6, 5, 4};
  spec.zipf = {1.1, 0.7, 1.3};
  spec.seed = 616;
  spec.with_measure = with_measure;
  return GenerateSyntheticTable(spec);
}

uint64_t TokenOf(const std::string& response_line) {
  size_t at = response_line.find("\"session\":\"");
  EXPECT_NE(at, std::string::npos) << response_line;
  if (at == std::string::npos) return 0;
  auto token = api::ParseToken(response_line.substr(at + 11, 16));
  EXPECT_TRUE(token.ok()) << response_line;
  return token.ok() ? *token : 0;
}

std::string TreePayload(const std::string& shown) {
  size_t tree = shown.find("\"tree\":");
  EXPECT_NE(tree, std::string::npos) << shown;
  if (tree == std::string::npos) return {};
  return shown.substr(tree + 7, shown.size() - tree - 7 - 1);
}

/// Records the streamed greedy steps in their SSE byte form (EncodeNode is
/// exactly what the HTTP adapter ships per `step` event).
class RecordingSink : public api::ProgressSink {
 public:
  bool OnStep(const api::NodeView& view, size_t step, size_t k) override {
    transcript_ += api::EncodeNode(view) + "\n";
    (void)step;
    (void)k;
    return true;
  }
  void OnDone(const api::Response&) override {}
  const std::string& transcript() const { return transcript_; }

 private:
  std::string transcript_;
};

TEST(ExpansionCacheServiceTest, ConcurrentIdenticalExpandsCostOneScan) {
  Table base = SynthBase();
  SizeWeight weight;
  api::ExplorationService service;
  ASSERT_TRUE(service.AddShardedTable("synth", base, weight).ok());
  uint64_t misses = service.expansion_cache().misses();
  uint64_t hits = service.expansion_cache().hits();

  // N sessions, one identical expand each, all in flight together. The
  // single-flight protocol guarantees exactly one cold scan no matter how
  // the threads interleave: latecomers hit, contemporaries wait then hit.
  constexpr int kClients = 8;
  std::vector<uint64_t> tokens;
  for (int i = 0; i < kClients; ++i) {
    tokens.push_back(TokenOf(service.ServeLine("open k=3")));
  }
  std::vector<std::string> trees(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i]() {
      api::ExpandRequest request;
      request.session = tokens[i];
      request.node = 0;
      api::Response response = service.Execute(api::Request(request));
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      trees[i] = response.tree ? api::EncodeTree(*response.tree) : "";
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(service.expansion_cache().misses(), misses + 1)
      << "identical concurrent expands must share one scan";
  EXPECT_EQ(service.expansion_cache().hits(), hits + kClients - 1);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(trees[i], trees[0]) << "client " << i << " diverged";
  }
  for (uint64_t token : tokens) {
    EXPECT_NE(service.ServeLine("close " + api::FormatToken(token))
                  .find("\"ok\":true"),
              std::string::npos);
  }
}

/// Declines the stream after its first step.
class CancelAfterFirstStepSink : public api::ProgressSink {
 public:
  bool OnStep(const api::NodeView&, size_t, size_t) override { return false; }
  void OnDone(const api::Response&) override {}
};

// A sink-cut run is a prefix of the expansion, so it must never be
// memoized: the next identical expand scans again and installs all k
// children, and only that complete run feeds later hits.
TEST(ExpansionCacheServiceTest, CancelledRunIsNotMemoized) {
  Table base = SynthBase();
  SizeWeight weight;
  api::ExplorationService service;
  ASSERT_TRUE(service.AddShardedTable("synth", base, weight).ok());
  cache::ExpansionCache& cache = service.expansion_cache();
  const uint64_t misses = cache.misses();
  const uint64_t hits = cache.hits();
  const size_t entries = cache.entries();

  auto expand = [&](api::ProgressSink* sink) {
    api::ExpandRequest request;
    request.session = TokenOf(service.ServeLine("open k=3"));
    request.node = 0;
    api::Response response = service.Execute(api::Request(request), sink);
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.tree.has_value());
    return response.tree ? *response.tree : api::TreeSnapshot{};
  };

  CancelAfterFirstStepSink cancel;
  api::TreeSnapshot cut = expand(&cancel);
  EXPECT_EQ(cut.nodes.size(), 2u) << "root plus the one streamed step";
  EXPECT_EQ(cache.misses(), misses + 1);
  EXPECT_EQ(cache.entries(), entries) << "a sink-cut run was memoized";

  api::TreeSnapshot full = expand(nullptr);
  EXPECT_EQ(cache.misses(), misses + 2) << "the cut run must not serve hits";
  ASSERT_FALSE(full.nodes.empty());
  EXPECT_EQ(full.nodes[0].children.size(), 3u);
  EXPECT_EQ(cache.entries(), entries + 1);

  api::TreeSnapshot replayed = expand(nullptr);
  EXPECT_EQ(cache.hits(), hits + 1);
  EXPECT_EQ(cache.misses(), misses + 2);
  EXPECT_EQ(api::EncodeTree(replayed), api::EncodeTree(full));
}

TEST(ExpansionCacheServiceTest, InvalidationIsPurelyByVersionBump) {
  Table base = SynthBase();
  SizeWeight weight;
  api::ServiceOptions options;
  options.live_snapshot_every_rows = 1;
  api::ExplorationService service(options);
  ASSERT_TRUE(service.AddLiveTable("synth", base, weight).ok());

  std::string tok = api::FormatToken(TokenOf(service.ServeLine("open k=3")));
  EXPECT_NE(service.ServeLine("expand " + tok + " 0").find("\"ok\":true"),
            std::string::npos);
  size_t entries_v1 = service.expansion_cache().entries();
  EXPECT_GE(entries_v1, 1u);

  // The append bumps the version. Nothing is scanned or purged: the v1
  // entry stays resident (the pinned session can still hit it) and the v2
  // expand simply misses under its new key.
  EXPECT_NE(service.ServeLine("append n0,n1,n2").find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(service.expansion_cache().entries(), entries_v1);

  uint64_t misses = service.expansion_cache().misses();
  std::string tok2 = api::FormatToken(TokenOf(service.ServeLine("open k=3")));
  EXPECT_NE(service.ServeLine("expand " + tok2 + " 0").find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(service.expansion_cache().misses(), misses + 1)
      << "the version bump must retire the old key";
  EXPECT_GT(service.expansion_cache().entries(), entries_v1);

  // The pinned v1 session replays its version's entry — a hit, no scan.
  uint64_t hits = service.expansion_cache().hits();
  EXPECT_NE(service.ServeLine("collapse " + tok + " 0").find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service.ServeLine("expand " + tok + " 0").find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(service.expansion_cache().hits(), hits + 1);
}

// The cache differential suite: one scripted walk per execution config —
// cold expands, then collapse + re-expand (cache hits) — captured as the
// full byte transcript (streamed SSE steps of cold AND hit expands, plus
// the final tree). Every config must produce the same bytes, and the hit
// path must actually fire. This is the load-bearing property behind the
// key's exclusion of threads, shards and the kernel path: a scalar 1-shard
// 1-thread backend may serve an entry computed by an AVX2 4-shard 8-thread
// one.
TEST(ExpansionCacheServiceTest, HitPathByteIdenticalAcrossExecutionConfigs) {
  Table base = SynthBase();
  SizeWeight weight;

  struct Config {
    size_t shards;
    size_t threads;
    const char* kernel;
  };
  std::vector<Config> configs;
  for (size_t shards : {1, 4}) {
    for (size_t threads : {1, 8}) {
      for (const char* kernel : testing::AvailableKernels()) {
        configs.push_back({shards, threads, kernel});
      }
    }
  }

  std::string reference;
  for (const Config& config : configs) {
    // Every search of this config, cold or replayed, runs inside the
    // SMARTDD_KERNEL scope (the finder resolves it once per Find).
    testing::ScopedKernel scoped(config.kernel);
    api::ServiceOptions options;
    options.num_shards = config.shards;
    options.live_snapshot_every_rows = 1;
    api::ExplorationService service(options);
    ASSERT_TRUE(service.AddLiveTable("synth", base, weight).ok());

    std::string open = service.ServeLine(
        "open k=3 threads=" + std::to_string(config.threads));
    uint64_t token = TokenOf(open);
    std::string tok = api::FormatToken(token);

    auto expand = [&](int node) {
      RecordingSink sink;
      api::ExpandRequest request;
      request.session = token;
      request.node = node;
      api::Response response = service.Execute(api::Request(request), &sink);
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      return sink.transcript() +
             (response.tree ? api::EncodeTree(*response.tree) : "") + "\n";
    };

    uint64_t hits = service.expansion_cache().hits();
    std::string transcript = expand(0);    // cold
    transcript += expand(1);               // cold
    EXPECT_NE(service.ServeLine("collapse " + tok + " 0").find("\"ok\":true"),
              std::string::npos);
    transcript += expand(0);               // hit: replays steps + children
    EXPECT_EQ(service.expansion_cache().hits(), hits + 1)
        << "the re-expand must come from the cache";
    transcript += TreePayload(service.ServeLine("show " + tok)) + "\n";

    std::string label = std::to_string(config.shards) + " shards, " +
                        std::to_string(config.threads) + " threads, " +
                        config.kernel;
    if (reference.empty()) {
      reference = transcript;
    } else {
      EXPECT_EQ(transcript, reference) << "config diverged: " << label;
    }
    EXPECT_NE(service.ServeLine("close " + tok).find("\"ok\":true"),
              std::string::npos);
  }
  ASSERT_GE(configs.size(), 4u);
  ASSERT_FALSE(reference.empty());
}

// The same walk with the cache disabled must also match: the hit path's
// bytes equal the cold path's, not merely each other. Three walks: plain
// Count expands, a star expand (the replayed steps come from the rewritten
// star weight), and a Sum session over a measure column (masses are float
// sums, not integer counts).
TEST(ExpansionCacheServiceTest, HitPathByteIdenticalToCacheDisabledColdRun) {
  struct Op {
    enum Kind { kExpand, kStar, kCollapse } kind;
    int node;
    size_t column = 0;
  };
  struct Walk {
    const char* name;
    bool with_measure;
    const char* open;
    std::vector<Op> ops;
  };
  const std::vector<Walk> walks = {
      {"count",
       false,
       "open k=3",
       {{Op::kExpand, 0}, {Op::kExpand, 1}, {Op::kCollapse, 0},
        {Op::kExpand, 0}}},
      {"star",
       false,
       "open k=3",
       {{Op::kStar, 0, 2}, {Op::kExpand, 1}, {Op::kCollapse, 0},
        {Op::kStar, 0, 2}}},
      {"sum",
       true,
       "open k=3 measure=value",
       {{Op::kExpand, 0}, {Op::kExpand, 1}, {Op::kCollapse, 0},
        {Op::kExpand, 0}}},
  };
  SizeWeight weight;

  for (const Walk& walk : walks) {
    Table base = SynthBase(walk.with_measure);

    auto drive = [&](size_t cache_bytes) {
      api::ServiceOptions options;
      options.cache_max_bytes = cache_bytes;
      options.live_snapshot_every_rows = 1;
      api::ExplorationService service(options);
      EXPECT_TRUE(service.AddLiveTable("synth", base, weight).ok());
      const uint64_t hits = service.expansion_cache().hits();
      uint64_t token = TokenOf(service.ServeLine(walk.open));
      std::string tok = api::FormatToken(token);
      std::string transcript;
      for (const Op& op : walk.ops) {
        if (op.kind == Op::kCollapse) {
          EXPECT_NE(service
                        .ServeLine("collapse " + tok + " " +
                                   std::to_string(op.node))
                        .find("\"ok\":true"),
                    std::string::npos);
          continue;
        }
        RecordingSink sink;
        api::ExpandRequest request;
        request.session = token;
        request.node = op.node;
        if (op.kind == Op::kStar) request.star_column = op.column;
        api::Response response =
            service.Execute(api::Request(request), &sink);
        EXPECT_TRUE(response.status.ok())
            << walk.name << ": " << response.status.ToString();
        transcript += sink.transcript();
        transcript += response.tree ? api::EncodeTree(*response.tree) : "";
        transcript += "\n";
      }
      if (cache_bytes > 0) {
        EXPECT_EQ(service.expansion_cache().hits(), hits + 1)
            << walk.name << ": the re-expand must come from the cache";
      }
      return transcript;
    };

    std::string warm = drive(32u << 20);  // hits on the re-expand
    std::string cold = drive(0);  // cache disabled: every expand scans
    EXPECT_EQ(warm, cold) << walk.name;
  }
}

/// A request carrying an explicit deadline budget must never be served from
/// the cache: a cold run with a pre-expired budget degrades into
/// DEADLINE_EXCEEDED + a partial tree, and an instant replay never would —
/// the response would depend on cache state, which the byte-identity
/// contract forbids. (This is the scripted /v1/expand deadline-degrade case
/// in scripts/http_smoke.golden.)
TEST(ExpansionCacheServiceTest, DeadlineBudgetedRequestsBypassTheCache) {
  Table base = SynthBase();
  SizeWeight weight;
  api::ExplorationService service;
  ASSERT_TRUE(service.AddShardedTable("synth", base, weight).ok());

  // Prime the cache with the root expansion.
  std::string tok = api::FormatToken(TokenOf(service.ServeLine("open k=3")));
  ASSERT_NE(service.ServeLine("expand " + tok + " 0").find("\"ok\":true"),
            std::string::npos);
  uint64_t hits = service.expansion_cache().hits();
  uint64_t misses = service.expansion_cache().misses();

  // A fresh session asks for the same expansion with a pre-expired budget.
  // The warm entry exists, but the request must run cold and degrade.
  std::string tok2 = api::FormatToken(TokenOf(service.ServeLine("open k=3")));
  std::string degraded =
      service.ServeLine("expand " + tok2 + " 0 deadline_ms=0.0001");
  EXPECT_NE(degraded.find("DEADLINE_EXCEEDED"), std::string::npos) << degraded;
  EXPECT_NE(degraded.find("\"partial\":true"), std::string::npos) << degraded;
  EXPECT_EQ(service.expansion_cache().hits(), hits)
      << "a deadline-budgeted request was served from the cache";
  EXPECT_EQ(service.expansion_cache().misses(), misses)
      << "a deadline-budgeted request entered the miss/record path";

  // The partial must not have poisoned the cache either: an undeadlined
  // expand from another fresh session still hits the primed entry.
  std::string tok3 = api::FormatToken(TokenOf(service.ServeLine("open k=3")));
  ASSERT_NE(service.ServeLine("expand " + tok3 + " 0").find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(service.expansion_cache().hits(), hits + 1);

  for (const std::string& t : {tok, tok2, tok3}) {
    EXPECT_NE(service.ServeLine("close " + t).find("\"ok\":true"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace smartdd
