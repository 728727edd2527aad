#ifndef SMARTDD_API_SERVICE_H_
#define SMARTDD_API_SERVICE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/codec.h"
#include "api/dto.h"
#include "api/session_registry.h"
#include "cache/expansion_cache.h"
#include "explore/engine.h"
#include "live/table_versions.h"

namespace smartdd::api {

/// Service-wide configuration.
struct ServiceOptions {
  /// Registry caps: see SessionRegistry::Options.
  size_t max_sessions = 1024;
  uint64_t idle_ttl_ms = 0;
  /// Injectable clock for TTL tests (milliseconds, monotonic).
  std::function<uint64_t()> clock_ms;
  /// 0 = entropy-seeded session tokens (the safe default); fixed nonzero
  /// seeds are for reproducible scripting only (see SessionRegistry).
  uint64_t token_seed = 0;
  /// Default shard count for engines stood up via AddShardedTable (clamped
  /// to >= 1). Purely an execution knob: the wire protocol, expansion
  /// trees, and every response byte are identical for every value.
  size_t num_shards = 1;
  /// Live-table snapshot cadence: publish a new table version once this
  /// many appended rows are pending. 0 disables the row trigger.
  uint64_t live_snapshot_every_rows = 256;
  /// Publish a new version once this many milliseconds have passed since
  /// the last publish and at least one row is pending. 0 disables the
  /// time trigger.
  int64_t live_snapshot_every_ms = 0;
  /// WAL durability batching for live tables: fsync once per this many
  /// appended records (1 = every append; 0 = never, rely on the OS).
  size_t live_fsync_every_records = 1;
  /// Expansion-cache byte budget across all cache shards (0 disables the
  /// cross-session expansion cache entirely).
  size_t cache_max_bytes = 32u << 20;
};

/// The transport-agnostic front door to smart drill-down: an
/// ExplorationService fronts one or more ExplorationEngines (one per
/// dataset) and turns serializable requests into serializable responses —
/// addressable sessions behind opaque tokens, every rule pre-rendered to
/// strings, uniform Status-coded errors. A byte stream through
/// ServeLine/ServeScript (the api/codec grammar) is the canonical
/// integration surface; HTTP or websocket layers are thin adapters over
/// Execute/SubmitExpand.
///
/// Threading: every method is safe to call from any number of transport
/// threads. Requests addressing different sessions run in parallel;
/// requests for one session serialize on its registry entry. Engines are
/// borrowed, not owned, and must outlive the service.
class ExplorationService {
 public:
  explicit ExplorationService(ServiceOptions options = {});

  ExplorationService(const ExplorationService&) = delete;
  ExplorationService& operator=(const ExplorationService&) = delete;

  /// Registers `engine` as dataset `name`. The first engine added also
  /// becomes the default (used by open requests with no dataset=). Returns
  /// InvalidArgument for a duplicate name.
  Status AddEngine(std::string name, ExplorationEngine* engine);

  /// Stands up a service-owned engine over `table` (num_shards = 0
  /// uses ServiceOptions::num_shards) and registers it as dataset `name`.
  /// `table` and `weight` must outlive the service.
  Status AddShardedTable(std::string name, const Table& table,
                         const WeightFunction& weight, size_t num_shards = 0);

  /// Registers a live (appendable) dataset `name` seeded with `base`. When
  /// `wal_path` is non-empty, appended rows are durably logged there and
  /// replayed on the next startup (recovered rows become version 2 before
  /// the first open). Each published snapshot version gets its own
  /// service-owned engine lazily, on the first open that sees it;
  /// sessions pin the version they opened against and old version engines
  /// are retired when their last session closes. `weight` must outlive the
  /// service. Snapshot cadence and fsync batching come from ServiceOptions.
  Status AddLiveTable(std::string name, Table base,
                      const WeightFunction& weight,
                      const std::string& wal_path = {},
                      size_t num_shards = 0);

  /// The live table behind dataset `name`, or nullptr if `name` is unknown
  /// or static. Exposed for embedders/tests that drive appends directly.
  live::LiveTable* FindLiveTable(const std::string& name);

  /// The cross-session expansion cache (hit/miss counters for tests and
  /// the /metrics exporter).
  cache::ExpansionCache& expansion_cache() { return cache_; }

  /// True while an AddLiveTable call is replaying a write-ahead log —
  /// /readyz reports `replaying` (503) so load balancers keep traffic off
  /// a node still rebuilding its snapshots.
  bool replaying() const {
    return replaying_.load(std::memory_order_acquire) > 0;
  }

  /// Executes one request synchronously. Never throws and never returns a
  /// malformed envelope: errors come back as a non-OK status with a stable
  /// wire code. `sink` (optional) streams the greedy steps of expand/star
  /// requests; its OnDone is NOT called by the synchronous path — the
  /// returned Response is the completion.
  Response Execute(const Request& request, ProgressSink* sink = nullptr);

  /// One request line in, one JSON response line out (no trailing
  /// newline). Parse defects come back on the same channel as
  /// INVALID_ARGUMENT responses.
  std::string ServeLine(std::string_view line);

  /// Runs a whole newline-separated script; returns one JSON line per
  /// non-blank, non-comment ('#') input line.
  std::string ServeScript(std::string_view script);

  /// Step-streaming expansion riding the engine's fair TaskScheduler: the
  /// expansion runs as a background task on a registry-owned per-session
  /// queue (FIFO among this session's submitted expansions, round-robin
  /// against other sessions' work; deliberately separate from the session's
  /// prefetch queue, whose pending passes the expansion joins when it
  /// runs), reporting each greedy step through `sink` and finishing with
  /// sink->OnDone. This is the hook a websocket front-end attaches to.
  /// Returns NotFound if the session does not exist; later failures reach
  /// the sink.
  Status SubmitExpand(const ExpandRequest& request,
                      std::shared_ptr<ProgressSink> sink);

  /// Evicts sessions idle past the TTL (also runs on every open).
  size_t SweepIdle() { return registry_.SweepIdle(); }

  /// Milliseconds since the last idle sweep finished; nullopt before the
  /// first sweep. Exported as a gauge by the HTTP /metrics route.
  std::optional<uint64_t> last_sweep_age_ms() const {
    return registry_.last_sweep_age_ms();
  }

  /// Live sessions across all engines.
  size_t num_sessions() const { return registry_.size(); }

  /// Registered datasets (static engines plus live tables). Zero means
  /// opens cannot succeed yet — the readiness probe's "loading" signal.
  size_t num_datasets() const {
    std::lock_guard<std::mutex> lock(engines_mu_);
    return engines_.size() + live_datasets_.size();
  }

 private:
  /// One frozen snapshot version's execution backend. The snapshot member
  /// is declared before the engine on purpose: the engine borrows the
  /// snapshot's Table, so the engine must be destroyed first.
  struct VersionEngine {
    std::shared_ptr<const live::TableSnapshot> snapshot;
    std::unique_ptr<ExplorationEngine> engine;
  };

  /// A registered live dataset: the appendable table plus the per-version
  /// engines stood up for it. Never removed once registered, so raw
  /// LiveDataset pointers cached in session metadata stay valid.
  struct LiveDataset {
    std::unique_ptr<live::LiveTable> table;
    const WeightFunction* weight = nullptr;
    size_t num_shards = 1;
    std::mutex mu;  ///< guards `engines`
    std::vector<std::shared_ptr<VersionEngine>> engines;
  };

  /// Cache identity of an open session, recorded at open time. `version`
  /// is 0 for static datasets (which never version, so 0 is a valid cache
  /// epoch for them); `live` is null for static datasets.
  struct SessionMeta {
    std::string dataset;
    uint64_t version = 0;
    LiveDataset* live = nullptr;
  };

  Response Open(const OpenRequest& request);
  Response Expand(const ExpandRequest& request, ProgressSink* sink);
  Response Collapse(const CollapseRequest& request);
  Response Show(const ShowRequest& request);
  Response Refresh(const RefreshRequest& request);
  Response CloseSession(const CloseRequest& request);
  Response Append(const AppendRequest& request);
  Response TableInfo(const TableInfoRequest& request);

  /// Session-addressed boilerplate: runs `fn` under the registry entry
  /// lock and wraps its snapshot in a Response echoing the token.
  Response WithSnapshot(uint64_t token,
                        const std::function<Status(ExplorationSession&)>& fn);

  ExplorationEngine* FindEngine(const std::string& dataset);
  LiveDataset* FindLiveDataset(const std::string& dataset,
                               std::string* resolved_name,
                               bool* known_static);

  /// Returns the engine for `ds`'s latest published version, standing one
  /// up if this is the first open since the version was published, and
  /// garbage-collecting retired versions.
  Result<std::shared_ptr<VersionEngine>> LatestVersionEngine(LiveDataset& ds);
  /// Drops version engines that are not the latest version and have no
  /// live sessions (and no in-flight open holding a reference). Caller
  /// holds ds.mu.
  void GcVersionEnginesLocked(LiveDataset& ds);
  /// Registry on_evict hook: forgets the token's metadata and retires any
  /// version engine its departure emptied.
  void CleanupSession(uint64_t token);

  /// Builds the expansion-cache key for this expand, or returns false when
  /// the expansion must not be cached (cache disabled, sampling engine,
  /// unknown session metadata, or an invalid node — the cold path then
  /// produces the error response). The key covers every input that can
  /// change the expansion's bytes (dataset identity — which pins the
  /// weight function — table version, node rule, star column, k,
  /// max_weight, measure) and deliberately excludes num_threads and
  /// num_shards, which the determinism contract makes byte-irrelevant. The
  /// scan-kernel path is no setting of a request at all (SMARTDD_KERNEL
  /// picks it per process), and every path returns the same bytes.
  bool BuildCacheKey(const ExpandRequest& request,
                     const ExplorationSession& session, std::string* key);

  /// ServiceOptions::num_shards, resolved at construction.
  size_t default_num_shards_ = 1;
  /// Live-table knobs from ServiceOptions, copied at construction.
  uint64_t live_snapshot_every_rows_ = 256;
  int64_t live_snapshot_every_ms_ = 0;
  size_t live_fsync_every_records_ = 1;
  std::function<uint64_t()> clock_ms_;
  mutable std::mutex engines_mu_;
  std::map<std::string, ExplorationEngine*> engines_;
  /// Guarded by engines_mu_ (map structure only; each LiveDataset has its
  /// own lock for its engines vector).
  std::map<std::string, std::unique_ptr<LiveDataset>> live_datasets_;
  std::string default_dataset_;
  /// Engines stood up by AddShardedTable. Declared before the registry so
  /// live sessions (owned by registry_, destroyed first) never outlive
  /// their engine.
  std::vector<std::unique_ptr<ExplorationEngine>> owned_engines_;
  std::mutex meta_mu_;
  std::unordered_map<uint64_t, SessionMeta> session_meta_;
  /// Live AddLiveTable calls currently replaying a WAL (readyz signal).
  std::atomic<size_t> replaying_{0};
  cache::ExpansionCache cache_;
  /// Last member on purpose: destroying the registry drains queued
  /// SubmitExpand tasks and fires on_evict cleanups, which may still touch
  /// every member above.
  SessionRegistry registry_;
};

}  // namespace smartdd::api

#endif  // SMARTDD_API_SERVICE_H_
