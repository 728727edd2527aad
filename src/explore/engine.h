#ifndef SMARTDD_EXPLORE_ENGINE_H_
#define SMARTDD_EXPLORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/task_scheduler.h"
#include "core/drilldown.h"
#include "core/scan_kernels.h"
#include "sampling/sample_handler.h"
#include "storage/scan_source.h"
#include "storage/table.h"
#include "weights/weight_function.h"

namespace smartdd {

class Counter;
class ExplorationSession;
class Histogram;
struct SessionOptions;

/// Engine-wide configuration (per dataset, not per user).
struct EngineOptions {
  /// Read only by Create(table, ...), which rejects true: a scan-source
  /// engine always samples and an in-memory one never does. The field stays
  /// while the end-to-end benchmark driver still sets it; it goes when that
  /// driver registers datasets through the service instead.
  bool use_sampling = false;
  SampleHandlerOptions sampler;
  /// Default thread knob for sessions and the sampler's scan passes when
  /// theirs is left at 0 (0 = all hardware threads).
  size_t num_threads = 0;
  /// Default scan-kernel path for sessions that leave theirs at kAuto.
  /// kAuto resolves through SMARTDD_KERNEL and then CPU detection; the
  /// resolved path is logged once at engine creation. Every path produces
  /// byte-identical results — this is a speed knob, not a semantics knob.
  KernelPref kernel = KernelPref::kAuto;
  /// Cap on concurrently running background tasks (prefetch passes); the
  /// scheduler spawns workers lazily, so engines whose sessions never
  /// prefetch cost no threads.
  size_t scheduler_workers = 2;
  /// Row partitions an in-memory table is split into (clamped to >= 1).
  /// Every exact drill-down scatter-gathers over the shards; expansion
  /// trees are byte-identical for every value, so this trades per-shard
  /// scan parallelism against per-shard working-set size. Scan-source
  /// engines are never sharded (Create rejects num_shards > 1 for them).
  size_t num_shards = 1;
};

/// The shared, thread-safe half of the engine/session split: one
/// ExplorationEngine per dataset owns everything immutable or internally
/// synchronized — the Table or ScanSource, the prototype schema and
/// dictionaries, the WeightFunction, the shared SampleHandler, and the fair
/// TaskScheduler for background work — while each user holds a cheap
/// ExplorationSession (tree state + options only) created via NewSession().
///
/// Concurrency contract: any number of sessions may run Expand / Collapse /
/// RefreshExactCounts concurrently from their own threads. Exact-mode
/// (in-memory Table) drill-downs are pure reads with deterministic
/// chunk-merged parallel passes, so every session's results are
/// bit-identical to the same interaction script run serially, regardless of
/// thread count or session interleaving. Scan-source (sampling) sessions
/// share the handler's sample store (reader-writer locked, single-flight
/// Create); their estimates depend on which samples are resident, hence on
/// the interleaving, but each returned sample is always a valid uniform
/// sample of its rule. The WeightFunction must be safe for concurrent const
/// calls (the standard weights are stateless).
///
/// An in-memory engine holds its table as EngineOptions::num_shards
/// row-contiguous shards (a ShardPlan over the rows, shared dictionaries).
/// With one shard that shard is the borrowed table itself; more shards are
/// SliceRows copies. Drill-downs treat the shards' concatenation as one row
/// space, so every shard count yields the same bytes.
///
/// The engine is pinned in memory (non-copyable, non-movable): sessions
/// hold raw back-pointers into it. Destroy all sessions before the engine.
class ExplorationEngine {
 public:
  /// Validated construction (the service-layer path): rejects inconsistent
  /// EngineOptions with a clear Status instead of dying or silently
  /// misbehaving later — scheduler_workers == 0 (background prefetch would
  /// never run), use_sampling on an in-memory table, and on a scan source
  /// num_shards > 1 or a sampler memory_capacity below min_sample_size
  /// (every Create would starve).
  static Result<std::unique_ptr<ExplorationEngine>> Create(
      const Table& table, const WeightFunction& weight,
      EngineOptions options = {});
  static Result<std::unique_ptr<ExplorationEngine>> Create(
      const ScanSource& source, const WeightFunction& weight,
      EngineOptions options = {});

  /// In-memory mode: exact drill-downs over `table`.
  /// `table` and `weight` must outlive the engine.
  /// Embedding-layer constructor: clamps instead of validating (it cannot
  /// return a Status); prefer Create() which rejects bad options up front.
  ExplorationEngine(const Table& table, const WeightFunction& weight,
                    EngineOptions options = {});

  /// Scan-source mode: drill-downs run on samples from the engine's shared
  /// SampleHandler, built from options.sampler, and exact counts come from
  /// its passes. Embedding-layer constructor; prefer Create() for validated
  /// construction.
  ExplorationEngine(const ScanSource& source, const WeightFunction& weight,
                    EngineOptions options = {});

  ~ExplorationEngine();

  ExplorationEngine(const ExplorationEngine&) = delete;
  ExplorationEngine& operator=(const ExplorationEngine&) = delete;

  /// Creates a new exploration session bound to this engine, validating the
  /// options up front: k == 0, a non-positive or NaN max_weight, an unknown
  /// measure_column, or prefetch on an in-memory engine (which has no
  /// sampler) all return InvalidArgument here instead of failing deep inside
  /// a later Expand.
  /// Sessions are cheap (the display tree and options); create one per
  /// user/request stream. The returned session must not outlive the engine.
  Result<ExplorationSession> NewSession(SessionOptions options);
  Result<ExplorationSession> NewSession();

  /// Validation behind NewSession, exposed so front doors can reject a
  /// request before touching the engine.
  Status ValidateSessionOptions(const SessionOptions& options) const;

  /// Prototype table: schema + shared dictionaries for rendering/parsing.
  const Table& prototype() const { return prototype_; }
  const WeightFunction& weight() const { return *weight_; }
  /// The in-memory table, or nullptr in scan-source mode.
  const Table* table() const { return table_; }
  /// The scan source, or nullptr in in-memory mode.
  const ScanSource* source() const { return source_; }
  /// The shared sample handler of a scan-source engine, or nullptr in
  /// in-memory mode.
  SampleHandler* sampler() const { return sampler_.get(); }
  /// Row shards of the in-memory table (1 in scan-source mode).
  size_t num_shards() const { return options_.num_shards; }
  /// Shard `i` of the in-memory table, in shard order: the borrowed table
  /// itself when there is one shard, an owned row slice otherwise.
  const Table& shard(size_t i) const { return *shards_[i]; }
  /// Fair background-task scheduler (one queue per session).
  TaskScheduler& scheduler() const { return *scheduler_; }
  const EngineOptions& options() const { return options_; }
  /// Sessions currently bound to this engine.
  size_t num_sessions() const {
    return live_sessions_.load(std::memory_order_relaxed);
  }

  /// Exact drill-down over the shards (in-memory mode only).
  /// `measure_column` selects Sum aggregation. A non-zero
  /// request.num_threads is per shard: it is scaled by num_shards(), so a
  /// session's thread knob fans out across the shards.
  Result<DrillDownResponse> DrillDown(
      DrillDownRequest request,
      const std::optional<std::string>& measure_column) const;

 private:
  friend class ExplorationSession;

  /// Binds a new session: allocates its scheduler queue and returns its id
  /// (also the SampleHandler session key).
  uint64_t RegisterSession();
  /// Releases a session: drains its background tasks, drops its displayed
  /// tree from the handler, and destroys its queue.
  void UnregisterSession(uint64_t id);
  /// Exact masses of `rules` (in-memory mode only). Each rule's sum runs
  /// over the shards in shard order, the same additions in the same order
  /// as one pass over the whole table.
  std::vector<double> ExactMasses(const std::vector<Rule>& rules,
                                  std::optional<size_t> measure) const;

  const WeightFunction* weight_;
  EngineOptions options_;
  // Exactly one of table_/source_ is set.
  const Table* table_ = nullptr;
  const ScanSource* source_ = nullptr;
  Table prototype_;
  std::unique_ptr<SampleHandler> sampler_;
  std::unique_ptr<TaskScheduler> scheduler_;
  /// In-memory mode: the shards in shard order. They point at table_ when
  /// there is one shard and into shard_slices_ otherwise.
  std::vector<Table> shard_slices_;
  std::vector<const Table*> shards_;
  /// Per-shard counting-pass counters and the scatter-gather merge-latency
  /// histogram (process-wide instruments; in-memory mode only).
  std::vector<Counter*> shard_scan_passes_;
  Histogram* merge_latency_ = nullptr;
  std::atomic<size_t> live_sessions_{0};
};

}  // namespace smartdd

#endif  // SMARTDD_EXPLORE_ENGINE_H_
