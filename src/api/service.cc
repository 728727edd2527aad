#include "api/service.h"

#include <algorithm>
#include <utility>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace smartdd::api {

namespace {

Response ErrorResponse(Status status) {
  Response r;
  r.status = std::move(status);
  return r;
}

struct DegradeCounters {
  Counter& deadline_exceeded;
  Counter& partial_responses;
};

DegradeCounters& Degrades() {
  static DegradeCounters* counters = new DegradeCounters{
      MetricsRegistry::Default().GetCounter(
          "smartdd_deadline_exceeded_total",
          "Requests whose deadline fired before the work completed"),
      MetricsRegistry::Default().GetCounter(
          "smartdd_partial_responses_total",
          "Degraded responses shipped with a partial tree after a deadline"),
  };
  return *counters;
}

}  // namespace

ExplorationService::ExplorationService(ServiceOptions options)
    : default_num_shards_(std::max<size_t>(1, options.num_shards)),
      live_snapshot_every_rows_(options.live_snapshot_every_rows),
      live_snapshot_every_ms_(options.live_snapshot_every_ms),
      live_fsync_every_records_(options.live_fsync_every_records),
      clock_ms_(options.clock_ms),
      cache_({.max_bytes = options.cache_max_bytes}),
      registry_([this, &options]() {
        SessionRegistry::Options r;
        r.max_sessions = options.max_sessions;
        r.idle_ttl_ms = options.idle_ttl_ms;
        r.clock_ms = std::move(options.clock_ms);
        r.token_seed = options.token_seed;
        r.on_evict = [this](uint64_t token) { CleanupSession(token); };
        return r;
      }()) {}

Status ExplorationService::AddEngine(std::string name,
                                     ExplorationEngine* engine) {
  SMARTDD_CHECK(engine != nullptr);
  std::lock_guard<std::mutex> lock(engines_mu_);
  if (engines_.count(name) != 0 || live_datasets_.count(name) != 0) {
    return Status::InvalidArgument(
        StrFormat("dataset '%s' is already registered", name.c_str()));
  }
  if (engines_.empty() && live_datasets_.empty()) default_dataset_ = name;
  engines_.emplace(std::move(name), engine);
  return Status::OK();
}

Status ExplorationService::AddShardedTable(std::string name,
                                           const Table& table,
                                           const WeightFunction& weight,
                                           size_t num_shards) {
  EngineOptions options;
  options.num_shards = num_shards != 0 ? num_shards : default_num_shards_;
  auto engine = ExplorationEngine::Create(table, weight, options);
  SMARTDD_RETURN_IF_ERROR(engine.status());
  SMARTDD_RETURN_IF_ERROR(AddEngine(std::move(name), engine->get()));
  std::lock_guard<std::mutex> lock(engines_mu_);
  owned_engines_.push_back(std::move(engine).value());
  return Status::OK();
}

ExplorationEngine* ExplorationService::FindEngine(const std::string& dataset) {
  std::lock_guard<std::mutex> lock(engines_mu_);
  const std::string& name = dataset.empty() ? default_dataset_ : dataset;
  auto it = engines_.find(name);
  return it == engines_.end() ? nullptr : it->second;
}

ExplorationService::LiveDataset* ExplorationService::FindLiveDataset(
    const std::string& dataset, std::string* resolved_name,
    bool* known_static) {
  std::lock_guard<std::mutex> lock(engines_mu_);
  const std::string& name = dataset.empty() ? default_dataset_ : dataset;
  if (resolved_name != nullptr) *resolved_name = name;
  if (known_static != nullptr) *known_static = engines_.count(name) != 0;
  auto it = live_datasets_.find(name);
  return it == live_datasets_.end() ? nullptr : it->second.get();
}

live::LiveTable* ExplorationService::FindLiveTable(const std::string& name) {
  LiveDataset* ds = FindLiveDataset(name, nullptr, nullptr);
  return ds == nullptr ? nullptr : ds->table.get();
}

Status ExplorationService::AddLiveTable(std::string name, Table base,
                                        const WeightFunction& weight,
                                        const std::string& wal_path,
                                        size_t num_shards) {
  live::LiveTableOptions lopts;
  lopts.wal_path = wal_path;
  lopts.snapshot_every_rows = live_snapshot_every_rows_;
  lopts.snapshot_every_ms = live_snapshot_every_ms_;
  lopts.fsync_every_records = live_fsync_every_records_;
  if (clock_ms_) {
    auto clock = clock_ms_;
    lopts.clock_ms = [clock]() { return static_cast<int64_t>(clock()); };
  }
  // While the WAL replays, /readyz answers `replaying`: the node is alive
  // but its snapshots are still being rebuilt, so keep traffic off it.
  if (!wal_path.empty()) replaying_.fetch_add(1, std::memory_order_acq_rel);
  auto table = live::LiveTable::Create(std::move(base), std::move(lopts));
  if (!wal_path.empty()) replaying_.fetch_sub(1, std::memory_order_acq_rel);
  SMARTDD_RETURN_IF_ERROR(table.status());

  auto ds = std::make_unique<LiveDataset>();
  ds->table = std::move(table).value();
  ds->weight = &weight;
  ds->num_shards = num_shards != 0 ? num_shards : default_num_shards_;

  std::lock_guard<std::mutex> lock(engines_mu_);
  if (engines_.count(name) != 0 || live_datasets_.count(name) != 0) {
    return Status::InvalidArgument(
        StrFormat("dataset '%s' is already registered", name.c_str()));
  }
  if (engines_.empty() && live_datasets_.empty()) default_dataset_ = name;
  live_datasets_.emplace(std::move(name), std::move(ds));
  return Status::OK();
}

void ExplorationService::GcVersionEnginesLocked(LiveDataset& ds) {
  const uint64_t latest = ds.table->Info().version;
  ds.engines.erase(
      std::remove_if(
          ds.engines.begin(), ds.engines.end(),
          [latest](const std::shared_ptr<VersionEngine>& ve) {
            // Retire a version only when it is superseded, no session
            // explores it, and no in-flight open still holds a reference
            // (use_count > 1 means an Open copied the pointer but has not
            // registered its session yet — sparing it is always safe).
            return ve->snapshot->version != latest &&
                   ve->engine->num_sessions() == 0 &&
                   ve.use_count() == 1;
          }),
      ds.engines.end());
}

Result<std::shared_ptr<ExplorationService::VersionEngine>>
ExplorationService::LatestVersionEngine(LiveDataset& ds) {
  std::shared_ptr<const live::TableSnapshot> snapshot = ds.table->Latest();
  std::lock_guard<std::mutex> lock(ds.mu);
  for (const auto& ve : ds.engines) {
    if (ve->snapshot->version == snapshot->version) return ve;
  }
  auto ve = std::make_shared<VersionEngine>();
  ve->snapshot = std::move(snapshot);
  EngineOptions opts;
  opts.num_shards = ds.num_shards;
  auto engine = ExplorationEngine::Create(ve->snapshot->table, *ds.weight,
                                          opts);
  SMARTDD_RETURN_IF_ERROR(engine.status());
  ve->engine = std::move(engine).value();
  ds.engines.push_back(ve);
  GcVersionEnginesLocked(ds);
  return ve;
}

void ExplorationService::CleanupSession(uint64_t token) {
  LiveDataset* live = nullptr;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = session_meta_.find(token);
    if (it == session_meta_.end()) return;
    live = it->second.live;
    session_meta_.erase(it);
  }
  if (live != nullptr) {
    std::lock_guard<std::mutex> lock(live->mu);
    GcVersionEnginesLocked(*live);
  }
}

Response ExplorationService::Open(const OpenRequest& request) {
  std::string resolved;
  LiveDataset* live = FindLiveDataset(request.dataset, &resolved, nullptr);
  ExplorationEngine* engine = nullptr;
  std::shared_ptr<VersionEngine> version_engine;
  uint64_t version = 0;
  if (live != nullptr) {
    auto ve = LatestVersionEngine(*live);
    if (!ve.ok()) return ErrorResponse(ve.status());
    version_engine = std::move(ve).value();
    engine = version_engine->engine.get();
    version = version_engine->snapshot->version;
  } else {
    engine = FindEngine(request.dataset);
  }
  if (engine == nullptr) {
    return ErrorResponse(Status::NotFound(
        request.dataset.empty()
            ? std::string("service has no engines registered")
            : StrFormat("unknown dataset '%s'", request.dataset.c_str())));
  }

  SessionOptions options;
  options.k = request.k;
  options.max_weight = request.max_weight;
  if (!request.measure.empty()) options.measure_column = request.measure;
  options.num_threads = request.num_threads;
  options.prefetch = request.prefetch;

  auto session = engine->NewSession(std::move(options));
  if (!session.ok()) return ErrorResponse(session.status());

  // Snapshot before the registry takes ownership: the root-only initial
  // tree ships in the open response, saving the client a show round-trip.
  TreeSnapshot tree = SnapshotOf(*session);
  auto token = registry_.Insert(std::move(session).value());
  if (!token.ok()) return ErrorResponse(token.status());

  // Record the session's cache identity under the registry entry lock: if
  // the brand-new session was already LRU-evicted by a concurrent open,
  // With reports NotFound and we record nothing (on_evict already ran).
  (void)registry_.With(*token, [&](ExplorationSession&) {
    std::lock_guard<std::mutex> lock(meta_mu_);
    SessionMeta& meta = session_meta_[*token];
    meta.dataset = resolved;
    meta.version = version;
    meta.live = live;
    return Status::OK();
  });

  Response r;
  r.session = *token;
  r.tree = std::move(tree);
  return r;
}

Response ExplorationService::WithSnapshot(
    uint64_t token, const std::function<Status(ExplorationSession&)>& fn) {
  Response r;
  r.status = registry_.With(token, [&](ExplorationSession& session) {
    Status s = fn(session);
    if (s.code() == StatusCode::kDeadlineExceeded) {
      // Degrade, don't fail: the session kept the work that finished in
      // budget, so ship that tree with the error status and the partial
      // marker. The registry call itself still reports the error code.
      Degrades().deadline_exceeded.Inc();
      Degrades().partial_responses.Inc();
      r.partial = true;
      r.session = token;
      r.tree = SnapshotOf(session);
      return s;
    }
    SMARTDD_RETURN_IF_ERROR(s);
    r.tree = SnapshotOf(session);
    return Status::OK();
  });
  if (r.status.ok()) r.session = token;
  return r;
}

bool ExplorationService::BuildCacheKey(const ExpandRequest& request,
                                       const ExplorationSession& session,
                                       std::string* key) {
  if (!cache_.enabled()) return false;
  // Sampling engines are excluded: their masses are estimates whose bytes
  // depend on sample-store state, so a memoized replay could disagree with
  // what a cold run would produce today.
  if (session.sampler() != nullptr) return false;
  std::string dataset;
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = session_meta_.find(request.session);
    if (it == session_meta_.end()) return false;
    dataset = it->second.dataset;
    version = it->second.version;
  }
  if (request.node < 0 ||
      request.node >= static_cast<int>(session.num_nodes()) ||
      !session.node(request.node).alive) {
    return false;  // invalid node: let the cold path produce the error
  }
  // An explicit deadline budget always runs cold. A cold run may degrade
  // into DEADLINE_EXCEEDED + a partial tree; an instant replay never
  // would, so serving hits here would make the response depend on cache
  // state — the one thing the byte-identity contract forbids.
  if (request.deadline_ms > 0) return false;
  const SessionOptions& opts = session.options();
  // The dataset name pins the weight function (fixed at registration), and
  // the version pins the rows; everything else that shapes the result is
  // spelled out. Execution knobs (threads, shards) are deliberately absent
  // — the determinism contract makes them byte-irrelevant.
  std::string k = StrFormat(
      "%s|v%llu|k=%zu|mw=%.17g|m=%s|r=", dataset.c_str(),
      static_cast<unsigned long long>(version), opts.k, opts.max_weight,
      opts.measure_column ? opts.measure_column->c_str() : "");
  for (uint32_t code : session.node(request.node).rule.values()) {
    k += StrFormat("%08x,", code);
  }
  if (request.star_column) {
    k += StrFormat("|s%zu", *request.star_column);
  } else {
    k += "|s-";
  }
  *key = std::move(k);
  return true;
}

Response ExplorationService::Expand(const ExpandRequest& request,
                                    ProgressSink* sink) {
  return WithSnapshot(request.session, [&](ExplorationSession& session) {
    ExplorationSession::ExpandStepCallback on_step;
    if (sink != nullptr) {
      const Table* proto = &session.prototype();
      const size_t k = session.options().k;
      on_step = [sink, proto, k](const ScoredRule& rule, size_t step,
                                 bool exact) {
        return sink->OnStep(StepNodeView(rule, *proto, exact), step, k);
      };
    }
    // The clock starts when the request begins executing, not when it was
    // queued: SubmitExpand riders get their full budget from here.
    Deadline deadline;
    if (request.deadline_ms > 0) {
      deadline = Deadline::AfterMillis(request.deadline_ms);
    }

    // A cache-keyed request passes `memo` to the session. On a hit it holds
    // the entry, which the session replays; on a miss this request leads
    // the single flight, and the session fills `memo` only when the run
    // completed — a sink-cut run is a prefix and must not be served as the
    // whole answer.
    std::string key;
    const bool cached = BuildCacheKey(request, session, &key);
    std::shared_ptr<const cache::CachedExpansion> memo;
    if (cached) memo = cache_.LookupOrBegin(key);
    const bool leader = cached && memo == nullptr;
    Result<std::vector<int>> children = session.ExpandMemoized(
        request.node, request.star_column, on_step, deadline,
        cached ? &memo : nullptr);
    if (leader) {
      if (memo != nullptr) {
        cache_.Complete(key, std::move(memo));
      } else {
        cache_.Abandon(key);
      }
    }
    return children.status();
  });
}

Response ExplorationService::Collapse(const CollapseRequest& request) {
  return WithSnapshot(request.session, [&](ExplorationSession& session) {
    return session.Collapse(request.node);
  });
}

Response ExplorationService::Show(const ShowRequest& request) {
  return WithSnapshot(request.session,
                      [](ExplorationSession&) { return Status::OK(); });
}

Response ExplorationService::Refresh(const RefreshRequest& request) {
  return WithSnapshot(request.session, [](ExplorationSession& session) {
    return session.RefreshExactCounts();
  });
}

Response ExplorationService::CloseSession(const CloseRequest& request) {
  Response r;
  r.status = registry_.Close(request.session);
  return r;
}

namespace {

TableInfoView MakeInfoView(const std::string& dataset,
                           const live::LiveTableInfo& info) {
  TableInfoView view;
  view.dataset = dataset;
  view.version = info.version;
  view.rows = info.rows;
  view.pending_rows = info.pending_rows;
  view.wal_bytes = info.wal_bytes;
  return view;
}

}  // namespace

Response ExplorationService::Append(const AppendRequest& request) {
  std::string resolved;
  bool known_static = false;
  LiveDataset* live = FindLiveDataset(request.dataset, &resolved,
                                      &known_static);
  if (live == nullptr) {
    if (known_static) {
      return ErrorResponse(Status::InvalidArgument(StrFormat(
          "dataset '%s' is static (registered without a live table); "
          "appends are not accepted",
          resolved.c_str())));
    }
    return ErrorResponse(Status::NotFound(
        request.dataset.empty()
            ? std::string("service has no datasets registered")
            : StrFormat("unknown dataset '%s'", request.dataset.c_str())));
  }
  Status s = live->table->Append(request.row);
  if (!s.ok()) return ErrorResponse(std::move(s));
  Response r;
  r.table = MakeInfoView(resolved, live->table->Info());
  return r;
}

Response ExplorationService::TableInfo(const TableInfoRequest& request) {
  std::string resolved;
  bool known_static = false;
  LiveDataset* live = FindLiveDataset(request.dataset, &resolved,
                                      &known_static);
  if (live != nullptr) {
    Response r;
    r.table = MakeInfoView(resolved, live->table->Info());
    return r;
  }
  if (known_static) {
    // Static datasets report version 0 (they never version) and no WAL.
    ExplorationEngine* engine = FindEngine(request.dataset);
    SMARTDD_CHECK(engine != nullptr);
    TableInfoView view;
    view.dataset = resolved;
    view.rows = engine->table() != nullptr ? engine->table()->num_rows()
                                           : engine->source()->num_rows();
    Response r;
    r.table = std::move(view);
    return r;
  }
  return ErrorResponse(Status::NotFound(
      request.dataset.empty()
          ? std::string("service has no datasets registered")
          : StrFormat("unknown dataset '%s'", request.dataset.c_str())));
}

Response ExplorationService::Execute(const Request& request,
                                     ProgressSink* sink) {
  return std::visit(
      [&](const auto& req) -> Response {
        using T = std::decay_t<decltype(req)>;
        if constexpr (std::is_same_v<T, OpenRequest>) {
          return Open(req);
        } else if constexpr (std::is_same_v<T, ExpandRequest>) {
          return Expand(req, sink);
        } else if constexpr (std::is_same_v<T, CollapseRequest>) {
          return Collapse(req);
        } else if constexpr (std::is_same_v<T, ShowRequest>) {
          return Show(req);
        } else if constexpr (std::is_same_v<T, RefreshRequest>) {
          return Refresh(req);
        } else if constexpr (std::is_same_v<T, CloseRequest>) {
          return CloseSession(req);
        } else if constexpr (std::is_same_v<T, AppendRequest>) {
          return Append(req);
        } else if constexpr (std::is_same_v<T, TableInfoRequest>) {
          return TableInfo(req);
        } else {
          return Response{};  // ping
        }
      },
      request);
}

std::string ExplorationService::ServeLine(std::string_view line) {
  auto request = ParseRequest(line);
  if (!request.ok()) return EncodeResponse(ErrorResponse(request.status()));
  return EncodeResponse(Execute(*request));
}

std::string ExplorationService::ServeScript(std::string_view script) {
  std::string out;
  size_t start = 0;
  while (start <= script.size()) {
    size_t end = script.find('\n', start);
    if (end == std::string_view::npos) end = script.size();
    std::string_view line = script.substr(start, end - start);
    start = end + 1;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    out += ServeLine(line);
    out += '\n';
  }
  return out;
}

Status ExplorationService::SubmitExpand(const ExpandRequest& request,
                                        std::shared_ptr<ProgressSink> sink) {
  SMARTDD_CHECK(sink != nullptr);
  // The task re-resolves the session when a scheduler worker runs it; if
  // the session was closed or evicted meanwhile, the sink hears NotFound.
  return registry_.SubmitAsync(request.session, [this, request, sink]() {
    Response response = Execute(Request(request), sink.get());
    sink->OnDone(response);
    return response.status;
  });
}

}  // namespace smartdd::api
