#include "core/brs.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "rules/rule_ops.h"

namespace smartdd {

Result<BrsResult> RunBrs(const std::vector<const TableView*>& views,
                         const WeightFunction& weight,
                         const BrsOptions& options) {
  SMARTDD_CHECK(!views.empty()) << "BRS needs >= 1 view";
  for (const TableView* vp : views) {
    if (!vp->has_measure()) continue;
    // Negative or non-finite masses would invalidate the a-priori pruning
    // bounds, the submodularity argument, and the finder's stale-marginal
    // bounds; reject them up front (a NaN fails every comparison).
    const uint64_t n = vp->num_rows();
    for (uint64_t i = 0; i < n; ++i) {
      const double m = vp->mass(i);
      if (!(m >= 0 && std::isfinite(m))) {
        return Status::InvalidArgument(
            "Sum aggregation requires finite non-negative measure values");
      }
    }
  }

  MarginalSearchOptions search = options;
  if (std::isinf(search.max_weight)) {
    double cap = weight.MaxPossibleWeight(views[0]->num_columns());
    if (std::isfinite(cap)) search.max_weight = cap;
  }

  // The finder owns the covered weights: each Find first applies the
  // previous pick's update.
  MarginalRuleFinder finder(views, weight, search);

  BrsResult result;
  for (size_t step = 0; step < options.k; ++step) {
    if (options.deadline.active() && options.deadline.expired()) {
      result.deadline_exceeded = true;
      break;  // degrade: keep the steps that finished in budget
    }
    auto found = finder.Find();
    result.stats.Accumulate(finder.stats());
    if (!found.ok()) {
      if (found.status().code() == StatusCode::kNotFound) break;
      if (found.status().code() == StatusCode::kDeadlineExceeded) {
        result.deadline_exceeded = true;
        break;  // the interrupted step is discarded, earlier steps kept
      }
      return found.status();
    }
    const MarginalRuleResult& m = *found;

    ScoredRule sr;
    sr.rule = m.rule;
    sr.weight = m.weight;
    sr.mass = m.mass;
    sr.marginal_value = m.marginal;
    result.steps.push_back(sr);

    if (options.on_rule && !options.on_rule(sr, step)) break;
  }

  // Display order: descending weight (Lemma 1), stable for ties.
  result.rules = result.steps;
  std::stable_sort(
      result.rules.begin(), result.rules.end(),
      [](const ScoredRule& a, const ScoredRule& b) { return a.weight > b.weight; });

  // Exact Count/MCount (or Sum/MSum) of the final list over the view.
  std::vector<Rule> in_order;
  for (const auto& r : result.rules) in_order.push_back(r.rule);
  RuleListEvaluation eval = EvaluateRuleList(views, in_order, weight);
  for (size_t i = 0; i < result.rules.size(); ++i) {
    result.rules[i].mass = eval.mass[i];
    result.rules[i].marginal_mass = eval.marginal_mass[i];
  }
  result.total_score = eval.total_score;
  return result;
}

}  // namespace smartdd
