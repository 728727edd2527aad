#ifndef SMARTDD_CORE_BRS_H_
#define SMARTDD_CORE_BRS_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "core/best_marginal.h"
#include "core/score.h"
#include "storage/table_view.h"
#include "weights/weight_function.h"

namespace smartdd {

/// Options for the BRS (Best Rule Set) greedy algorithm (paper Algorithm 1):
/// the marginal search's options, which every greedy step searches with,
/// plus k and the anytime callback. Two inherited fields read differently
/// here:
///  - max_weight, the paper's mw: when infinite, RunBrs substitutes
///    weight.MaxPossibleWeight(num_columns) if that is finite, making the
///    search exact by default.
///  - deadline, the time-limit mode (§6.1: "we can set a time limit ... and
///    display as many rules as we can find within that time limit"): it can
///    interrupt a step in flight (the interrupted step's work is discarded;
///    completed steps are kept) and can fire before the first step. Expiry
///    marks the result partial instead of erroring — degrade, not fail.
struct BrsOptions : MarginalSearchOptions {
  /// Number of rules to select (the paper's k).
  size_t k = 4;
  /// Anytime mode (§6.1: "keep adding rules ... displaying new rules as
  /// they are found"): invoked after each greedy pick; return false to stop
  /// early with the rules found so far.
  std::function<bool(const ScoredRule&, size_t index)> on_rule;
};

/// Output of BRS.
struct BrsResult {
  /// Selected rules in greedy selection order, as streamed to on_rule:
  /// masses are exact over the view at pick time, marginal_mass is 0.
  std::vector<ScoredRule> steps;
  /// Selected rules in display order: descending weight (Lemma 1), ties in
  /// selection order. mass/marginal_mass are exact over the input view.
  std::vector<ScoredRule> rules;
  /// Score (Definition 2) of the selected set over the view.
  double total_score = 0;
  /// Aggregated search statistics across the k greedy steps.
  MarginalSearchStats stats;
  /// True when options.deadline fired: `rules` holds only the greedy steps
  /// that completed in budget (possibly none). Masses and total_score are
  /// still exact over the view for the rules present.
  bool deadline_exceeded = false;
};

/// Runs the greedy BRS algorithm: k iterations of FindBestMarginalRule,
/// each adding the rule with the highest marginal score gain. By
/// submodularity of Score (Lemma 3) the result is within 1-(1-1/k)^k of the
/// optimal score when max_weight covers the optimal rules' weights.
///
/// `views` are row-contiguous shard slices, in shard order, of one logical
/// table (shared dictionaries, same measure selection); a single view is
/// passed as `{&view}`. The search treats the shards' concatenation as a
/// single row space, so the selected rules, masses, and scores are
/// byte-identical for every shard count and thread count.
///
/// May return fewer than k rules when no remaining rule has positive
/// marginal value. Errors only on invalid inputs (e.g. negative masses in
/// Sum mode, which would break the pruning bounds).
Result<BrsResult> RunBrs(const std::vector<const TableView*>& views,
                         const WeightFunction& weight,
                         const BrsOptions& options = {});

}  // namespace smartdd

#endif  // SMARTDD_CORE_BRS_H_
