#ifndef SMARTDD_CORE_DRILLDOWN_H_
#define SMARTDD_CORE_DRILLDOWN_H_

#include <functional>
#include <optional>

#include "common/result.h"
#include "core/brs.h"

namespace smartdd {

/// One smart drill-down interaction (paper Problem 1).
struct DrillDownRequest {
  /// The rule the user clicked. All returned rules are super-rules of it.
  /// Use Rule::Trivial(num_columns) for the initial summary.
  Rule base{0};
  /// Star drill-down (paper §2.3): the user clicked the `?` in this column;
  /// every returned rule instantiates it. Must be a starred column of base.
  std::optional<size_t> star_column;
  /// Number of rules to return (default 3, like the paper's UI).
  size_t k = 3;
  /// The mw cap forwarded to BRS; infinity = derive from the weight
  /// function.
  double max_weight = std::numeric_limits<double>::infinity();
  /// Threads for the underlying BRS search (0 = all hardware threads).
  size_t num_threads = 0;
  /// Step streaming (§6.1 anytime mode as a service surface): invoked after
  /// each of the k greedy BRS steps with the freshly selected full-width
  /// rule and its 0-based step index. Return false to cancel the remaining
  /// steps; the rules found so far are still returned. The rule's mass at
  /// step time is exact over the working view (marginal_mass is only filled
  /// in for the final response list).
  std::function<bool(const ScoredRule& rule, size_t step)> on_step;
  /// Cooperative deadline forwarded to BRS; expiry degrades the response
  /// (partial = true, completed steps kept) instead of failing it.
  Deadline deadline;
};

/// Result of a smart drill-down.
struct DrillDownResponse {
  /// The greedy steps in selection order, as streamed to on_step (a star
  /// drill-down's defensive filter below does not apply to them).
  std::vector<ScoredRule> steps;
  /// Full-width super-rules of the request's base, sorted by descending
  /// weight. mass is Count(r)/Sum(r) over the *input view* (for a super-rule
  /// of base this equals its count over the base's cover); marginal_mass is
  /// MCount/MSum within this list.
  std::vector<ScoredRule> rules;
  double total_score = 0;
  /// Mass of tuples covered by base (|Tr| for Count).
  double base_mass = 0;
  MarginalSearchStats stats;
  /// Sampling context, filled by callers that ran the drill-down on a
  /// sample and scaled the masses: the scale factor applied and the number
  /// of sample rows (0 = exact, no sampling).
  double sample_scale = 1.0;
  uint64_t sample_rows = 0;
  /// True when the request's deadline fired mid-search: `rules` holds only
  /// the greedy steps that completed (possibly none), still well-formed.
  bool partial = false;
};

/// Executes a smart drill-down using the reduction of §3.1: gather the
/// tuples covered by base into T_r (Problem 1 -> Problem 2), search only
/// base's starred columns with weights evaluated on the merged super-rule,
/// and — for star drill-downs — rewrite the weight so rules not
/// instantiating the clicked column get weight 0.
///
/// `views` are row-contiguous shard slices, in shard order, of one logical
/// table; a single view is passed as `{&view}`. Each shard gathers the
/// base rule's cover locally; the search and the evaluations treat the
/// covers' concatenation as one row space, so the response is
/// byte-identical for every shard count.
Result<DrillDownResponse> SmartDrillDown(
    const std::vector<const TableView*>& views, const WeightFunction& weight,
    const DrillDownRequest& request);

}  // namespace smartdd

#endif  // SMARTDD_CORE_DRILLDOWN_H_
