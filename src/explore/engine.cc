#include "explore/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/score.h"
#include "explore/session.h"
#include "storage/shard_plan.h"
#include "storage/table_view.h"

namespace smartdd {

namespace {

/// Whole-table views over the shards, in shard order, each with `measure`
/// selected when set.
struct ShardViews {
  std::vector<TableView> views;
  std::vector<const TableView*> ptrs;

  ShardViews(const std::vector<const Table*>& shards,
             std::optional<size_t> measure) {
    views.reserve(shards.size());
    for (const Table* t : shards) views.emplace_back(*t, measure);
    for (const TableView& v : views) ptrs.push_back(&v);
  }
};

Status ValidateEngineOptions(const EngineOptions& options, bool in_memory) {
  if (options.scheduler_workers == 0) {
    return Status::InvalidArgument(
        "scheduler_workers must be >= 1: with no scheduler workers, "
        "background prefetch tasks would queue forever");
  }
  if (in_memory && options.use_sampling) {
    return Status::InvalidArgument(
        "sampling mode requires a ScanSource engine; in-memory tables are "
        "drilled exactly");
  }
  if (!in_memory && options.num_shards > 1) {
    return Status::InvalidArgument(
        "num_shards > 1 requires an in-memory table; a scan source is "
        "scanned whole");
  }
  if (!in_memory &&
      options.sampler.memory_capacity < options.sampler.min_sample_size) {
    return Status::InvalidArgument(StrFormat(
        "sampler memory_capacity (%llu) is below min_sample_size (%llu); "
        "no sample could ever be created",
        static_cast<unsigned long long>(options.sampler.memory_capacity),
        static_cast<unsigned long long>(options.sampler.min_sample_size)));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ExplorationEngine>> ExplorationEngine::Create(
    const Table& table, const WeightFunction& weight, EngineOptions options) {
  SMARTDD_RETURN_IF_ERROR(ValidateEngineOptions(options, /*in_memory=*/true));
  return std::unique_ptr<ExplorationEngine>(
      new ExplorationEngine(table, weight, std::move(options)));
}

Result<std::unique_ptr<ExplorationEngine>> ExplorationEngine::Create(
    const ScanSource& source, const WeightFunction& weight,
    EngineOptions options) {
  SMARTDD_RETURN_IF_ERROR(ValidateEngineOptions(options, /*in_memory=*/false));
  return std::unique_ptr<ExplorationEngine>(
      new ExplorationEngine(source, weight, std::move(options)));
}

ExplorationEngine::ExplorationEngine(const Table& table,
                                     const WeightFunction& weight,
                                     EngineOptions options)
    : weight_(&weight),
      options_(std::move(options)),
      table_(&table),
      prototype_(Table::EmptyLike(table)),
      scheduler_(std::make_unique<TaskScheduler>(
          std::max<size_t>(1, options_.scheduler_workers))) {
  options_.num_shards = std::max<size_t>(1, options_.num_shards);
  if (options_.num_shards == 1) {
    shards_.push_back(&table);
  } else {
    const ShardPlan plan =
        ShardPlan::Make(table.num_rows(), options_.num_shards);
    shard_slices_.reserve(plan.num_shards());
    for (const ShardRange& r : plan.ranges()) {
      shard_slices_.push_back(table.SliceRows(r.begin, r.end));
      shards_.push_back(&shard_slices_.back());
    }
  }

  MetricsRegistry& registry = MetricsRegistry::Default();
  // Resident bytes of the packed column payloads, whole table and per shard.
  registry
      .GetGauge("smartdd_table_bytes",
                "Resident bytes of the engine table's packed column storage")
      .Set(static_cast<int64_t>(table_->resident_column_bytes()));
  shard_scan_passes_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::string label = StrFormat("{shard=\"%zu\"}", s);
    registry
        .GetGauge("smartdd_shard_rows" + label,
                  "Rows owned by each shard of the engine table")
        .Set(static_cast<int64_t>(shards_[s]->num_rows()));
    registry
        .GetGauge("smartdd_table_bytes" + label,
                  "Resident bytes of each shard's packed column storage")
        .Set(static_cast<int64_t>(shards_[s]->resident_column_bytes()));
    shard_scan_passes_.push_back(&registry.GetCounter(
        "smartdd_shard_scan_passes_total" + label,
        "Counting-pass scans executed against each shard's rows"));
  }
  merge_latency_ = &registry.GetHistogram(
      "smartdd_sharded_merge_latency_seconds",
      "Wall time of the scatter-gather merge stages (folding per-lane and "
      "per-block partials in deterministic order) per exact drill-down",
      Histogram::LatencySeconds());
}

ExplorationEngine::ExplorationEngine(const ScanSource& source,
                                     const WeightFunction& weight,
                                     EngineOptions options)
    : weight_(&weight),
      options_(std::move(options)),
      source_(&source),
      prototype_(source.MakeEmptyTable()),
      scheduler_(std::make_unique<TaskScheduler>(
          std::max<size_t>(1, options_.scheduler_workers))) {
  options_.num_shards = 1;
  // The sampler's scan passes share the engine's thread knob unless it was
  // configured separately.
  if (options_.sampler.num_threads == 0) {
    options_.sampler.num_threads = options_.num_threads;
  }
  sampler_ = std::make_unique<SampleHandler>(source, options_.sampler);
}

ExplorationEngine::~ExplorationEngine() {
  SMARTDD_CHECK(live_sessions_.load(std::memory_order_relaxed) == 0)
      << "sessions must not outlive their engine";
}

Status ExplorationEngine::ValidateSessionOptions(
    const SessionOptions& options) const {
  if (options.k == 0) {
    return Status::InvalidArgument(
        "k must be >= 1: each drill-down reveals k rules");
  }
  if (std::isnan(options.max_weight) || options.max_weight <= 0) {
    return Status::InvalidArgument(
        "max_weight must be positive (infinity derives the cap from the "
        "weight function)");
  }
  if (options.measure_column) {
    auto measure = prototype_.FindMeasure(*options.measure_column);
    if (!measure.ok()) {
      return Status::InvalidArgument(StrFormat(
          "measure_column '%s' does not name a measure column of the source",
          options.measure_column->c_str()));
    }
  }
  if (options.prefetch && sampler_ == nullptr) {
    return Status::InvalidArgument(
        "prefetch requires a scan-source engine, which samples; exact "
        "in-memory drill-downs have nothing to pre-fetch");
  }
  return Status::OK();
}

Result<ExplorationSession> ExplorationEngine::NewSession(
    SessionOptions options) {
  SMARTDD_RETURN_IF_ERROR(ValidateSessionOptions(options));
  return ExplorationSession(this, std::move(options));
}

Result<ExplorationSession> ExplorationEngine::NewSession() {
  return NewSession(SessionOptions{});
}

Result<DrillDownResponse> ExplorationEngine::DrillDown(
    DrillDownRequest request,
    const std::optional<std::string>& measure_column) const {
  SMARTDD_CHECK(table_ != nullptr)
      << "exact drill-down requires an in-memory engine";
  std::optional<size_t> measure;
  if (measure_column) {
    SMARTDD_ASSIGN_OR_RETURN(measure, table_->FindMeasure(*measure_column));
  }
  // N shards at k threads each search with N*k lanes (0 stays 0 = all
  // hardware threads).
  request.num_threads *= shards_.size();

  const ShardViews shards(shards_, measure);
  SMARTDD_ASSIGN_OR_RETURN(
      DrillDownResponse response,
      SmartDrillDown(shards.ptrs, *weight_, request));

  // Every counting pass ran over every shard's rows: pass 1 of a run's
  // first greedy step scans them all, and the later passes read value and
  // stored covers, whose rows span the shards. The gather/merge
  // wall time is the scatter-gather overhead.
  for (Counter* c : shard_scan_passes_) c->Inc(response.stats.passes);
  merge_latency_->Observe(response.stats.merge_seconds);
  return response;
}

std::vector<double> ExplorationEngine::ExactMasses(
    const std::vector<Rule>& rules, std::optional<size_t> measure) const {
  SMARTDD_CHECK(table_ != nullptr)
      << "exact masses require an in-memory engine";
  // Each rule's sum runs across the shards in shard order, so the floats
  // are byte-identical for every shard count.
  const ShardViews shards(shards_, measure);
  std::vector<double> masses =
      EvaluateRuleList(shards.ptrs, rules, *weight_).mass;
  for (Counter* c : shard_scan_passes_) c->Inc(1);
  return masses;
}

uint64_t ExplorationEngine::RegisterSession() {
  live_sessions_.fetch_add(1, std::memory_order_relaxed);
  return scheduler_->CreateQueue();
}

void ExplorationEngine::UnregisterSession(uint64_t id) {
  // Join any in-flight background work first; then the queue and the
  // handler's per-session tree can go.
  (void)scheduler_->Drain(id);
  if (sampler_ != nullptr) sampler_->DropSession(id);
  scheduler_->DestroyQueue(id);
  live_sessions_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace smartdd
