#ifndef SMARTDD_EXPLORE_SESSION_H_
#define SMARTDD_EXPLORE_SESSION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/drilldown.h"
#include "sampling/sample_handler.h"
#include "storage/scan_source.h"
#include "weights/weight_function.h"

namespace smartdd {

class ExplorationEngine;
namespace cache {
struct CachedExpansion;
}  // namespace cache

/// Session configuration.
struct SessionOptions {
  /// Rules revealed per drill-down (the paper's k; its UI default is 3).
  size_t k = 3;
  /// mw cap; infinity derives it from the weight function.
  double max_weight = std::numeric_limits<double>::infinity();
  /// Pre-fetch samples for likely next drill-downs after each expansion
  /// (paper §4.3: "while the user is busy reading the current rule-list ...
  /// start making a pass through the table in the background"). The pass
  /// runs as an engine-scheduled task on the session's fair queue, and the
  /// next interaction joins it. Sampling engines only.
  bool prefetch = false;
  /// Rank and display by Sum over this measure column instead of Count
  /// (paper §6.3). Must name a measure column of the table/source.
  std::optional<std::string> measure_column;
  /// Threads for this session's drill-down searches (0 = the engine
  /// default, which itself defaults to all hardware threads). The sampler's
  /// Create/ExactMasses scan passes are shared by every session and take
  /// their threads from EngineOptions (sampler.num_threads, which defaults
  /// to EngineOptions::num_threads), not from here. Results are
  /// bit-identical for every thread count.
  size_t num_threads = 0;
};

/// One displayed rule in the exploration tree.
struct ExplorationNode {
  Rule rule{0};
  double weight = 0;
  /// Displayed Count/Sum; estimated (scaled) in sampling mode.
  double mass = 0;
  /// MCount/MSum within the sibling rule list (paper §2.1; 0 for the root).
  double marginal_mass = 0;
  /// Whether `mass` is exact or a sample-based estimate.
  bool exact = true;
  /// 95% confidence half-width of the estimate (0 when exact).
  double ci_half_width = 0;
  int parent = -1;
  std::vector<int> children;
  int depth = 0;
  bool alive = true;
};

/// Stateful smart drill-down exploration over a table (paper §2.3's
/// interaction model): a tree of rules rooted at the trivial rule, where
/// the user expands rules, expands stars, and collapses (rolls up).
///
/// A session is a cheap per-user handle into a shared ExplorationEngine:
/// it owns only the display tree and its options, and holds raw
/// back-pointers into engine state — which is why it is move-only (an
/// accidental copy would silently alias the tree) and must not outlive its
/// engine. Create sessions with ExplorationEngine::NewSession (stand up an
/// engine first even for one-shot embedding uses; it pins the dataset,
/// weight, sampler, and scheduler the session explores through).
///
/// A session itself is not thread-safe (one user drives it); *different*
/// sessions of one engine may run concurrently from different threads.
class ExplorationSession {
 public:
  ~ExplorationSession();

  // Move-only: the session holds raw back-pointers into engine state, and
  // a copy would alias the display tree and the scheduler queue.
  ExplorationSession(const ExplorationSession&) = delete;
  ExplorationSession& operator=(const ExplorationSession&) = delete;
  ExplorationSession(ExplorationSession&& other) noexcept;
  ExplorationSession& operator=(ExplorationSession&& other) noexcept;

  /// Root node id (the trivial rule).
  int root() const { return 0; }

  /// Step-streaming observer for an expansion: called after each of the k
  /// greedy BRS steps with the freshly selected rule (masses already scaled
  /// to full-table estimates in sampling mode), the 0-based step index, and
  /// whether the mass is exact (false when it is a sampling estimate).
  /// Return false to cancel the remaining steps — the rules found so far
  /// still become children, so a front-end can stream partial results and
  /// cut a slow expansion short.
  using ExpandStepCallback =
      std::function<bool(const ScoredRule& rule, size_t step, bool exact)>;

  /// Smart drill-down on a displayed rule; returns ids of the new children.
  /// Expanding an already-expanded node collapses it first (the paper's
  /// toggle behaviour is split: see Collapse).
  ///
  /// `deadline` bounds the expansion cooperatively: on expiry the search
  /// degrades instead of failing — the children found within budget are
  /// appended to the tree, the §4.3 prefetch is skipped, and the call
  /// returns DeadlineExceeded so the caller can mark the result partial.
  Result<std::vector<int>> Expand(int node_id,
                                  ExpandStepCallback on_step = nullptr,
                                  const Deadline& deadline = {});

  /// Star drill-down: expand forcing instantiation of `column`.
  Result<std::vector<int>> ExpandStar(int node_id, size_t column,
                                      ExpandStepCallback on_step = nullptr,
                                      const Deadline& deadline = {});

  /// The one way an expansion reaches the tree; Expand and ExpandStar are
  /// this call without `memo`. `star_column` set makes it a star
  /// drill-down.
  ///
  /// `memo` carries the expansion cache's record (cache/expansion_cache.h;
  /// exact engines only, where a result is deterministic). When `*memo`
  /// holds a record, it lands instead of a search: its greedy-order steps
  /// stream to `on_step` and its children and base mass land exactly as
  /// the cold run installed them. A declining callback stops that stream
  /// but the full child list still lands: the result is already computed,
  /// so truncating saves no work, and the tree stays independent of client
  /// speed. When `*memo` is null, the drill-down runs, and if it completed
  /// (exact, not cut short by `on_step`, not degraded by `deadline`)
  /// `*memo` receives its record for the caller to publish.
  Result<std::vector<int>> ExpandMemoized(
      int node_id, std::optional<size_t> star_column,
      const ExpandStepCallback& on_step, const Deadline& deadline,
      std::shared_ptr<const cache::CachedExpansion>* memo);

  /// Roll up: removes the node's descendants from the display.
  Status Collapse(int node_id);

  bool IsExpanded(int node_id) const;

  const ExplorationNode& node(int id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Displayed nodes in render order (pre-order walk of alive nodes).
  std::vector<int> DisplayOrder() const;

  /// Replaces estimated counts of displayed rules with exact counts
  /// computed in one pass (the §4.3 background-refresh behaviour).
  Status RefreshExactCounts();

  /// Waits for any in-flight background prefetch (exposed for tests).
  Status WaitForPrefetch();

  /// The engine this session explores through.
  ExplorationEngine& engine() const { return *engine_; }
  /// This session's id within the engine (its scheduler-queue and
  /// sample-handler key).
  uint64_t id() const { return id_; }

  const Table& prototype() const;
  const SampleHandler* sampler() const;
  /// The (validated, defaults-resolved) options this session runs with.
  const SessionOptions& options() const { return options_; }
  const std::optional<std::string>& measure_column() const {
    return options_.measure_column;
  }

 private:
  friend class ExplorationEngine;

  /// NewSession path: binds to `engine` (not owned).
  ExplorationSession(ExplorationEngine* engine, SessionOptions options);

  void Bind(ExplorationEngine* engine, SessionOptions options);
  /// Unbinds from the engine (drains background work); safe to call twice.
  void Release();

  Result<DrillDownResponse> RunDrillDown(const Rule& base,
                                         std::optional<size_t> star_column,
                                         const ExpandStepCallback& on_step,
                                         const Deadline& deadline);
  void KillSubtree(int node_id);
  DisplayTree BuildDisplayTree() const;
  void AfterExpansion();

  ExplorationEngine* engine_ = nullptr;
  SessionOptions options_;
  uint64_t id_ = 0;  // 0 = unbound (moved-from)
  std::vector<ExplorationNode> nodes_;
};

}  // namespace smartdd

#endif  // SMARTDD_EXPLORE_SESSION_H_
