#ifndef SMARTDD_RULES_RULE_OPS_H_
#define SMARTDD_RULES_RULE_OPS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "rules/rule.h"
#include "storage/table_view.h"

namespace smartdd {

/// True if `general` is a sub-rule of `specific` (paper §2.1): `general` has
/// stars wherever it differs, so every tuple covered by `specific` is covered
/// by `general`. Non-strict: every rule is a sub-rule of itself.
/// Example: (a, ?) is a sub-rule of (a, b).
bool IsSubRuleOf(const Rule& general, const Rule& specific);

/// True if `specific` is a super-rule of `general` (the inverse relation).
inline bool IsSuperRuleOf(const Rule& specific, const Rule& general) {
  return IsSubRuleOf(general, specific);
}

/// Merges two rules into the least specific common super-rule. Fails if the
/// rules conflict (both instantiate a column with different values).
Result<Rule> MergeRules(const Rule& a, const Rule& b);

/// True if rule `r` covers row `i` of the view. Column-major: decodes only
/// the rule's non-star columns straight from the packed column payloads.
inline bool RuleCoversRow(const Rule& r, const TableView& view, uint64_t i) {
  const Table& table = view.table();
  const std::vector<uint32_t>& values = r.values();
  for (size_t c = 0; c < values.size(); ++c) {
    uint32_t v = values[c];
    if (v != kStar && v != table.column(c).Get(i)) return false;
  }
  return true;
}

/// A rule compiled for repeated row checks: only the non-star columns,
/// each as a (packed column ref, wanted code) predicate, so covering a
/// row is a handful of inline decodes with no per-cell indirection and no
/// wildcard scanning. The canonical column-major predicate — reuse this
/// instead of re-deriving it (core/score.cc does; core/best_marginal.cc
/// keeps a stack-array variant to stay allocation-free per candidate).
/// The source table must outlive the compiled form.
struct CompiledRule {
  std::vector<PackedRef> cols;
  std::vector<uint32_t> want;

  CompiledRule() = default;
  CompiledRule(const Rule& r, const Table& table) { Compile(r, table); }

  void Compile(const Rule& r, const Table& table) {
    cols.clear();
    want.clear();
    for (size_t c = 0; c < r.num_columns(); ++c) {
      uint32_t v = r.value(c);
      if (v == kStar) continue;
      cols.push_back(table.column(c).ref());
      want.push_back(v);
    }
  }

  [[nodiscard]] bool Covers(uint32_t row) const {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i].Get(row) != want[i]) return false;
    }
    return true;
  }
};

/// Total mass (Count, or Sum of the selected measure) of tuples covered by
/// `r` in the view. This is the paper's Count(r) / Sum(r).
double RuleMass(const TableView& view, const Rule& r);

/// Ids of the view rows covered by `r`, ascending. Runs block-wise through
/// the dispatched match-mask kernels; the output is identical on every path.
std::vector<uint32_t> FilterRows(const TableView& view, const Rule& r);

/// T_r (paper §3.1): the view rows covered by `r`, gathered in row order
/// into a compact table that shares the view's dictionaries (see
/// Table::GatherRows). Returns nullopt when `r` covers every row: the view
/// then already is T_r, and nothing is copied.
std::optional<Table> GatherCover(const TableView& view, const Rule& r);

/// Selectivity ratio S(r1, r2) from paper §4.1: the fraction of r1-covered
/// mass that is also covered by r2, for r1 a sub-rule of r2 (0 otherwise; 0
/// when r1 covers nothing). Used by the sample-allocation problem.
double SelectivityRatio(const TableView& view, const Rule& general,
                        const Rule& specific);

}  // namespace smartdd

#endif  // SMARTDD_RULES_RULE_OPS_H_
