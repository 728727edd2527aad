#ifndef SMARTDD_CORE_SCORE_H_
#define SMARTDD_CORE_SCORE_H_

#include <cstddef>
#include <vector>

#include "rules/rule.h"
#include "storage/table_view.h"
#include "weights/weight_function.h"

namespace smartdd {

/// A rule enriched with the statistics smart drill-down displays: its
/// weight, its covered mass (the paper's Count, or Sum when the view has a
/// measure), and its marginal mass within the displayed list (MCount/MSum).
struct ScoredRule {
  Rule rule{0};
  double weight = 0;
  /// Count(r) / Sum(r): total mass of tuples covered by the rule.
  double mass = 0;
  /// MCount(r, R) / MSum(r, R): mass covered by this rule and no earlier
  /// rule in the weight-sorted list.
  double marginal_mass = 0;
  /// Marginal score gain when the rule was selected by the greedy algorithm
  /// (0 when the list was not produced by BRS).
  double marginal_value = 0;
};

/// Per-list evaluation output.
struct RuleListEvaluation {
  /// mass[i] and marginal_mass[i] for the i-th rule *of the input order*.
  std::vector<double> mass;
  std::vector<double> marginal_mass;
  /// Score(R) per Definition 2 (rules sorted by descending weight, each
  /// tuple attributed to the highest-weight covering rule).
  double total_score = 0;
};

/// Returns indices of `rules` ordered by descending weight (stable: ties
/// keep input order). Lemma 1: this order maximizes the list's score.
std::vector<size_t> OrderByWeightDesc(const std::vector<Rule>& rules,
                                      const WeightFunction& weight);

/// Exact evaluation of a rule list: per-rule Count/MCount (or Sum/MSum) and
/// the total score. The list is internally evaluated in descending-weight
/// order per Definition 2, but outputs are reported in the input order.
/// The per-rule match masks run on the ResolveKernelPath() path (results
/// are bit-identical across paths).
///
/// `views` are row-contiguous shard slices, in shard order, of one logical
/// table; a single view is passed as `{&view}`. The accumulators run
/// sequentially across the views in shard order — the same addition
/// sequence as evaluating the unsharded original — so the floats are
/// byte-identical for every shard count (per-shard subtotals folded
/// together would not be: a different fold tree drifts in the ULPs). When
/// every term is an integer and every sum stays below 2^53 (an integer
/// weight, integer masses), it counts per block instead of sweeping rows,
/// with the sweep's result bit for bit.
RuleListEvaluation EvaluateRuleList(
    const std::vector<const TableView*>& views, const std::vector<Rule>& rules,
    const WeightFunction& weight);

/// Score of a rule *set* (Definition 2): sort by weight descending, then
/// sum MCount(r) * W(r).
double ScoreRuleSet(const TableView& view, const std::vector<Rule>& rules,
                    const WeightFunction& weight);

/// Score of a rule *list* evaluated in the given order (no re-sorting);
/// used to verify Lemma 1 (sorting by weight never lowers the score).
double ScoreRuleListInOrder(const TableView& view,
                            const std::vector<Rule>& rules,
                            const WeightFunction& weight);

}  // namespace smartdd

#endif  // SMARTDD_CORE_SCORE_H_
