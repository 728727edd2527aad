#include "core/drilldown.h"

#include <utility>

#include "common/logging.h"
#include "rules/rule_ops.h"
#include "weights/star_constraint.h"

namespace smartdd {

Result<DrillDownResponse> SmartDrillDown(
    const std::vector<const TableView*>& views, const WeightFunction& weight,
    const DrillDownRequest& request) {
  SMARTDD_CHECK(!views.empty()) << "drill-down needs >= 1 view";
  const Rule& base = request.base;
  if (base.num_columns() != views[0]->num_columns()) {
    return Status::InvalidArgument("base rule width does not match table");
  }
  if (request.star_column) {
    if (*request.star_column >= views[0]->num_columns()) {
      return Status::InvalidArgument("star column out of range");
    }
    if (!base.is_star(*request.star_column)) {
      return Status::InvalidArgument(
          "star drill-down column is already instantiated in the base rule");
    }
  }

  // Problem 1 -> Problem 2: restrict to T_r, the tuples covered by the
  // clicked rule. Each shard gathers its cover into a compact table, in row
  // order, so the covers stay row-contiguous slices of T_r in shard order.
  // A shard that the base covers entirely (a sample served for the base)
  // is searched as it is.
  std::vector<Table> covers;
  std::vector<TableView> cover_views;
  std::vector<const TableView*> subs = views;
  if (!base.is_trivial()) {
    covers.reserve(views.size());  // cover_views point into both vectors
    cover_views.reserve(views.size());
    for (size_t i = 0; i < views.size(); ++i) {
      std::optional<Table> cover = GatherCover(*views[i], base);
      if (!cover) continue;
      covers.push_back(std::move(*cover));
      subs[i] = &cover_views.emplace_back(covers.back(),
                                          views[i]->measure_index());
    }
  }

  DrillDownResponse response;
  // Base mass: one accumulator advanced sequentially across the shards in
  // shard order — the same addition sequence as total_mass() over the
  // unsharded view, so the float is byte-identical for every shard count.
  // (Count mode sums exact integers; any fold order would do there.)
  {
    double base_mass = 0;
    for (const TableView* sub : subs) {
      if (sub->has_measure()) {
        const uint64_t n = sub->num_rows();
        for (uint64_t i = 0; i < n; ++i) base_mass += sub->mass(i);
      } else {
        base_mass += static_cast<double>(sub->num_rows());
      }
    }
    response.base_mass = base_mass;
  }

  // Search space: the starred columns of base. Tuples covered by base are
  // constant on its instantiated columns, so nothing is lost.
  std::vector<size_t> allowed;
  for (size_t c = 0; c < base.num_columns(); ++c) {
    if (base.is_star(c)) allowed.push_back(c);
  }
  if (allowed.empty()) {
    return response;  // base is fully instantiated; nothing to expand
  }

  BrsOptions brs;
  brs.k = request.k;
  brs.max_weight = request.max_weight;
  brs.allowed_columns = allowed;
  brs.base_rule = base;
  brs.num_threads = request.num_threads;
  brs.on_rule = request.on_step;
  brs.deadline = request.deadline;

  // Star drill-down: weight rewrite W'(r) = 0 when r stars the clicked
  // column (§3.1), which also keeps W' monotonic.
  std::optional<StarConstraintWeight> star_weight;
  const WeightFunction* w = &weight;
  if (request.star_column) {
    star_weight.emplace(weight, *request.star_column);
    w = &*star_weight;
  }

  SMARTDD_ASSIGN_OR_RETURN(BrsResult brs_result, RunBrs(subs, *w, brs));

  for (auto& r : brs_result.rules) {
    // Zero-weight rules can only appear if nothing positive exists; they
    // never pass the positive-marginal filter in BRS, but be defensive for
    // star drill-downs: only emit rules that instantiate the clicked column.
    if (request.star_column && r.rule.is_star(*request.star_column)) continue;
    response.rules.push_back(std::move(r));
  }
  response.steps = std::move(brs_result.steps);
  response.total_score = brs_result.total_score;
  response.stats = brs_result.stats;
  response.partial = brs_result.deadline_exceeded;
  return response;
}

}  // namespace smartdd
