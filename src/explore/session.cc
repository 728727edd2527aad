#include "explore/session.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "cache/expansion_cache.h"
#include "common/string_util.h"
#include "explore/engine.h"
#include "sampling/minss_guidance.h"

namespace smartdd {

namespace {

ExplorationNode MakeRoot(size_t num_columns, double total_mass) {
  ExplorationNode root;
  root.rule = Rule::Trivial(num_columns);
  root.weight = 0;
  root.mass = total_mass;
  root.exact = true;
  root.parent = -1;
  root.depth = 0;
  return root;
}

}  // namespace

void ExplorationSession::Bind(ExplorationEngine* engine,
                              SessionOptions options) {
  engine_ = engine;
  options_ = std::move(options);
  if (options_.num_threads == 0) {
    options_.num_threads = engine_->options().num_threads;
  }
  id_ = engine_->RegisterSession();
  double total_mass = engine_->table() != nullptr
                          ? static_cast<double>(engine_->table()->num_rows())
                          : static_cast<double>(engine_->source()->num_rows());
  nodes_.push_back(MakeRoot(engine_->prototype().num_columns(), total_mass));
}

void ExplorationSession::Release() {
  if (engine_ != nullptr && id_ != 0) {
    engine_->UnregisterSession(id_);
  }
  id_ = 0;
  engine_ = nullptr;
}

ExplorationSession::ExplorationSession(ExplorationEngine* engine,
                                       SessionOptions options) {
  Bind(engine, std::move(options));
}

ExplorationSession::~ExplorationSession() { Release(); }

ExplorationSession::ExplorationSession(ExplorationSession&& other) noexcept
    : engine_(other.engine_),
      options_(std::move(other.options_)),
      id_(other.id_),
      nodes_(std::move(other.nodes_)) {
  other.engine_ = nullptr;
  other.id_ = 0;
}

ExplorationSession& ExplorationSession::operator=(
    ExplorationSession&& other) noexcept {
  if (this == &other) return *this;
  Release();
  engine_ = other.engine_;
  options_ = std::move(other.options_);
  id_ = other.id_;
  nodes_ = std::move(other.nodes_);
  other.engine_ = nullptr;
  other.id_ = 0;
  return *this;
}

const Table& ExplorationSession::prototype() const {
  return engine_->prototype();
}

const SampleHandler* ExplorationSession::sampler() const {
  return engine_->sampler();
}

Result<DrillDownResponse> ExplorationSession::RunDrillDown(
    const Rule& base, std::optional<size_t> star_column,
    const ExpandStepCallback& on_step, const Deadline& deadline) {
  DrillDownRequest request;
  request.base = base;
  request.star_column = star_column;
  request.k = options_.k;
  request.max_weight = options_.max_weight;
  request.num_threads = options_.num_threads;
  request.deadline = deadline;
  if (engine_->table() != nullptr) {
    if (on_step) {
      // The exact path searches the full data: step masses are exact.
      request.on_step = [&on_step](const ScoredRule& r, size_t step) {
        return on_step(r, step, /*exact=*/true);
      };
    }
    return engine_->DrillDown(request, options_.measure_column);
  }

  // A scan source: search a sample of the rule's cover.
  SMARTDD_ASSIGN_OR_RETURN(
      SampleRequest sample,
      engine_->sampler()->GetSampleFor(base, id_, deadline));
  TableView view(sample.table);
  if (options_.measure_column) {
    SMARTDD_ASSIGN_OR_RETURN(
        size_t m, sample.table.FindMeasure(*options_.measure_column));
    view.SelectMeasure(m);
  }
  const double scale = sample.scale;
  if (on_step) {
    // Stream full-table estimates, not raw sample masses: the observer sees
    // the same scale — and the same exactness — the final children will
    // carry (a complete cover, scale <= 1, is exact).
    request.on_step = [&on_step, scale](const ScoredRule& r, size_t step) {
      ScoredRule scaled = r;
      scaled.mass *= scale;
      scaled.marginal_mass *= scale;
      return on_step(scaled, step, /*exact=*/scale <= 1.0);
    };
  }
  SMARTDD_ASSIGN_OR_RETURN(DrillDownResponse response,
                           SmartDrillDown({&view}, engine_->weight(), request));
  // Scale sample masses to full-table estimates; ExpandMemoized attaches
  // the confidence intervals from the sampling context stashed here.
  for (auto* list : {&response.steps, &response.rules}) {
    for (auto& r : *list) {
      r.marginal_mass *= scale;
      r.mass *= scale;
    }
  }
  response.base_mass *= scale;
  response.sample_scale = scale;
  response.sample_rows = sample.table.num_rows();
  return response;
}

Result<std::vector<int>> ExplorationSession::ExpandMemoized(
    int node_id, std::optional<size_t> star_column,
    const ExpandStepCallback& on_step, const Deadline& deadline,
    std::shared_ptr<const cache::CachedExpansion>* memo) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size()) ||
      !nodes_[node_id].alive) {
    return Status::InvalidArgument("no such display node");
  }
  // Join this session's background prefetch before the expansion: the
  // handler is thread-safe, but the §4.3 contract is that the prefetch pass
  // finishes "while the user reads", i.e. before the next interaction
  // consults the sample store — and a failed prefetch must surface here.
  SMARTDD_RETURN_IF_ERROR(WaitForPrefetch());
  // Re-expanding first rolls up the old children.
  if (!nodes_[node_id].children.empty()) {
    SMARTDD_RETURN_IF_ERROR(Collapse(node_id));
  }

  const cache::CachedExpansion* hit =
      memo != nullptr ? memo->get() : nullptr;
  bool declined = false;
  DrillDownResponse response;
  if (hit != nullptr) {
    for (size_t step = 0; step < hit->steps.size(); ++step) {
      if (on_step && !on_step(hit->steps[step], step, /*exact=*/true)) break;
    }
    response.rules = hit->rules;
    response.base_mass = hit->base_mass;
  } else {
    // Note whether the observer cut the search short (see the memo below).
    ExpandStepCallback observe;
    if (on_step) {
      observe = [&on_step, &declined](const ScoredRule& r, size_t step,
                                      bool exact) {
        declined = !on_step(r, step, exact);
        return !declined;
      };
    }
    SMARTDD_ASSIGN_OR_RETURN(
        response,
        RunDrillDown(nodes_[node_id].rule, star_column, observe, deadline));
  }

  std::vector<int> child_ids;
  const bool sampled = response.sample_rows > 0;
  for (const auto& sr : response.rules) {
    ExplorationNode child;
    child.rule = sr.rule;
    child.weight = sr.weight;
    child.mass = sr.mass;
    child.marginal_mass = sr.marginal_mass;
    child.exact = !sampled;
    if (sampled && response.sample_scale > 0) {
      // Binomial CI on the covered-count fraction; for Sum aggregation this
      // is an approximation (treats per-tuple mass as homogeneous).
      child.ci_half_width = CountConfidenceHalfWidth(
          sr.mass / response.sample_scale,
          static_cast<double>(response.sample_rows), response.sample_scale);
      child.exact = response.sample_scale <= 1.0;
    }
    child.parent = node_id;
    child.depth = nodes_[node_id].depth + 1;
    int id = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(child));
    nodes_[node_id].children.push_back(id);
    child_ids.push_back(id);
  }
  // The drill-down also re-measured the expanded rule itself (its slice
  // mass); adopt it — this is how the root learns its Sum total.
  nodes_[node_id].mass = response.base_mass;
  nodes_[node_id].exact = !sampled;
  if (response.partial) {
    // Degrade, don't fail: the children found in budget stay in the tree
    // (appended above) and the sampler still learns the new displayed tree,
    // but the §4.3 prefetch — more work against an already-blown budget —
    // is skipped. The status tells the caller to mark the result partial.
    SampleHandler* sampler = engine_->sampler();
    if (sampler != nullptr) sampler->SetDisplayedTree(id_, BuildDisplayTree());
    return Status::DeadlineExceeded(
        "expansion deadline exceeded; partial tree retained");
  }
  AfterExpansion();
  // Only a complete exact run is worth memoizing: one cut short by the
  // observer is a prefix of the expansion, not the expansion.
  if (memo != nullptr && hit == nullptr && !declined && !sampled) {
    *memo = std::make_shared<const cache::CachedExpansion>(
        cache::CachedExpansion{std::move(response.steps),
                               std::move(response.rules), response.base_mass});
  }
  return child_ids;
}

Result<std::vector<int>> ExplorationSession::Expand(
    int node_id, ExpandStepCallback on_step, const Deadline& deadline) {
  return ExpandMemoized(node_id, std::nullopt, on_step, deadline, nullptr);
}

Result<std::vector<int>> ExplorationSession::ExpandStar(
    int node_id, size_t column, ExpandStepCallback on_step,
    const Deadline& deadline) {
  return ExpandMemoized(node_id, column, on_step, deadline, nullptr);
}

void ExplorationSession::KillSubtree(int node_id) {
  for (int child : nodes_[node_id].children) {
    KillSubtree(child);
    nodes_[child].alive = false;
  }
  nodes_[node_id].children.clear();
}

Status ExplorationSession::Collapse(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size()) ||
      !nodes_[node_id].alive) {
    return Status::InvalidArgument("no such display node");
  }
  KillSubtree(node_id);
  SampleHandler* sampler = engine_->sampler();
  if (sampler != nullptr) {
    // Join this session's in-flight background prefetch before declaring
    // the new displayed tree. The join is what matters here; a failed
    // prefetch status still surfaces via WaitForPrefetch()/the next Expand.
    (void)engine_->scheduler().Drain(id_);
    sampler->SetDisplayedTree(id_, BuildDisplayTree());
  }
  return Status::OK();
}

bool ExplorationSession::IsExpanded(int node_id) const {
  return node_id >= 0 && node_id < static_cast<int>(nodes_.size()) &&
         nodes_[node_id].alive && !nodes_[node_id].children.empty();
}

std::vector<int> ExplorationSession::DisplayOrder() const {
  std::vector<int> order;
  std::function<void(int)> walk = [&](int id) {
    order.push_back(id);
    for (int c : nodes_[id].children) {
      if (nodes_[c].alive) walk(c);
    }
  };
  walk(0);
  return order;
}

DisplayTree ExplorationSession::BuildDisplayTree() const {
  DisplayTree tree;
  // Map alive nodes to dense indices, root first (pre-order).
  std::vector<int> order = DisplayOrder();
  std::vector<int> dense(nodes_.size(), -1);
  for (size_t i = 0; i < order.size(); ++i) dense[order[i]] = static_cast<int>(i);
  for (int id : order) {
    DisplayTree::Node n;
    n.rule = nodes_[id].rule;
    n.estimated_mass = nodes_[id].mass;
    n.parent = nodes_[id].parent >= 0 ? dense[nodes_[id].parent] : -1;
    for (int c : nodes_[id].children) {
      if (nodes_[c].alive) n.children.push_back(dense[c]);
    }
    n.expand_probability = 0;  // uniform-over-leaves default in the handler
    tree.nodes.push_back(std::move(n));
  }
  return tree;
}

void ExplorationSession::AfterExpansion() {
  SampleHandler* sampler = engine_->sampler();
  if (sampler == nullptr) return;
  sampler->SetDisplayedTree(id_, BuildDisplayTree());
  if (!options_.prefetch) return;
  // Engine-scheduled background task on this session's fair queue — no
  // thread spawn per pass, and one session's prefetch backlog cannot starve
  // another session's.
  const uint64_t session = id_;
  engine_->scheduler().Submit(
      id_, [sampler, session]() { return sampler->Prefetch(session); });
}

Status ExplorationSession::RefreshExactCounts() {
  SMARTDD_RETURN_IF_ERROR(WaitForPrefetch());
  std::vector<int> order = DisplayOrder();
  std::vector<Rule> rules;
  for (int id : order) rules.push_back(nodes_[id].rule);

  std::optional<size_t> measure;
  if (options_.measure_column) {
    SMARTDD_ASSIGN_OR_RETURN(
        size_t m, engine_->prototype().FindMeasure(*options_.measure_column));
    measure = m;
  }

  std::vector<double> masses;
  if (engine_->table() != nullptr) {
    masses = engine_->ExactMasses(rules, measure);
  } else {
    SMARTDD_ASSIGN_OR_RETURN(masses,
                             engine_->sampler()->ExactMasses(rules, measure));
  }
  for (size_t i = 0; i < order.size(); ++i) {
    nodes_[order[i]].mass = masses[i];
    nodes_[order[i]].exact = true;
    nodes_[order[i]].ci_half_width = 0;
  }
  return Status::OK();
}

Status ExplorationSession::WaitForPrefetch() {
  return engine_->scheduler().Drain(id_);
}

}  // namespace smartdd
