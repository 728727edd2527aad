#include "core/baseline.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "rules/rule_ops.h"

namespace smartdd {

namespace {

/// Visits every sub-rule of the tuple `codes` with size in [1, max_size]
/// over `cols` (all non-empty subsets of the columns, values pinned to the
/// tuple's).
template <typename Fn>
void ForEachTupleSubRule(const std::vector<size_t>& cols,
                         const TableView& view, uint64_t row, size_t max_size,
                         Fn&& fn) {
  const size_t n = cols.size();
  SMARTDD_CHECK(n < 24) << "too many columns for exhaustive enumeration";
  const uint32_t limit = 1u << n;
  Rule rule(view.num_columns());
  for (uint32_t mask = 1; mask < limit; ++mask) {
    size_t bits = static_cast<size_t>(__builtin_popcount(mask));
    if (bits > max_size) continue;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        rule.set_value(cols[i], view.code(cols[i], row));
      } else {
        rule.clear_value(cols[i]);
      }
    }
    fn(rule);
  }
}

std::vector<size_t> ResolveColumns(const TableView& view,
                                   const std::vector<size_t>& allowed) {
  if (!allowed.empty()) return allowed;
  std::vector<size_t> cols(view.num_columns());
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = c;
  return cols;
}

}  // namespace

std::vector<Rule> EnumerateSupportedRules(
    const TableView& view, size_t max_size,
    const std::vector<size_t>& allowed_columns) {
  std::vector<size_t> cols = ResolveColumns(view, allowed_columns);
  std::unordered_set<Rule, RuleHash> seen;
  const uint64_t n = view.num_rows();
  for (uint64_t t = 0; t < n; ++t) {
    ForEachTupleSubRule(cols, view, t, max_size,
                        [&](const Rule& r) { seen.insert(r); });
  }
  std::vector<Rule> out(seen.begin(), seen.end());
  // Deterministic order: by size then lexicographic values.
  std::sort(out.begin(), out.end(), [](const Rule& a, const Rule& b) {
    size_t sa = a.size(), sb = b.size();
    if (sa != sb) return sa < sb;
    return a.values() < b.values();
  });
  return out;
}

Result<MarginalRuleResult> NaiveBestMarginal(
    const TableView& view, const WeightFunction& weight,
    const std::vector<double>& covered_weight, double max_weight,
    size_t max_size) {
  SMARTDD_CHECK(covered_weight.size() == view.num_rows());
  std::vector<Rule> rules = EnumerateSupportedRules(view, max_size);
  MarginalRuleResult best;
  bool found = false;
  for (const Rule& r : rules) {
    double w = weight.Weight(r);
    if (w > max_weight) continue;
    double mass = 0;
    double marginal = 0;
    const uint64_t n = view.num_rows();
    for (uint64_t t = 0; t < n; ++t) {
      if (!RuleCoversRow(r, view, t)) continue;
      double m = view.mass(t);
      mass += m;
      marginal += m * std::max(0.0, w - covered_weight[t]);
    }
    if (marginal <= 0) continue;
    bool better = !found || marginal > best.marginal;
    if (!better && marginal == best.marginal) {
      better = w > best.weight ||
               (w == best.weight && r.values() < best.rule.values());
    }
    if (better) {
      best.rule = r;
      best.weight = w;
      best.mass = mass;
      best.marginal = marginal;
      found = true;
    }
  }
  if (!found) return Status::NotFound("no rule with positive marginal value");
  return best;
}

Result<ExactRuleSetResult> BruteForceOptimalRuleSet(
    const TableView& view, const WeightFunction& weight, size_t k,
    size_t max_size, size_t max_universe) {
  std::vector<Rule> universe = EnumerateSupportedRules(view, max_size);
  if (universe.size() > max_universe) {
    return Status::CapacityExceeded(
        StrFormat("rule universe has %zu rules, exceeding the brute-force "
                  "cap of %zu",
                  universe.size(), max_universe));
  }
  k = std::min(k, universe.size());

  std::vector<size_t> current;
  std::vector<size_t> best_subset;
  double best_score = -1;

  // Exhaustive k-subset search (k is small in tests).
  std::function<void(size_t)> recurse = [&](size_t start) {
    if (current.size() == k) {
      std::vector<Rule> rules;
      for (size_t i : current) rules.push_back(universe[i]);
      double s = ScoreRuleSet(view, rules, weight);
      if (s > best_score) {
        best_score = s;
        best_subset = current;
      }
      return;
    }
    for (size_t i = start; i < universe.size(); ++i) {
      current.push_back(i);
      recurse(i + 1);
      current.pop_back();
    }
  };
  recurse(0);

  ExactRuleSetResult result;
  std::vector<Rule> rules;
  for (size_t i : best_subset) rules.push_back(universe[i]);
  std::vector<size_t> order = OrderByWeightDesc(rules, weight);
  std::vector<Rule> sorted;
  for (size_t i : order) sorted.push_back(rules[i]);
  RuleListEvaluation eval = EvaluateRuleList({&view}, sorted, weight);
  for (size_t i = 0; i < sorted.size(); ++i) {
    ScoredRule sr;
    sr.rule = sorted[i];
    sr.weight = weight.Weight(sorted[i]);
    sr.mass = eval.mass[i];
    sr.marginal_mass = eval.marginal_mass[i];
    result.rules.push_back(std::move(sr));
  }
  result.total_score = eval.total_score;
  return result;
}

std::vector<std::pair<uint32_t, double>> TraditionalDrillDown(
    const TableView& view, size_t col) {
  SMARTDD_CHECK(col < view.num_columns());
  std::unordered_map<uint32_t, double> mass;
  const uint64_t n = view.num_rows();
  for (uint64_t t = 0; t < n; ++t) {
    mass[view.code(col, t)] += view.mass(t);
  }
  std::vector<std::pair<uint32_t, double>> out(mass.begin(), mass.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::vector<ScoredRule> FrequentRules(const TableView& view,
                                      double min_support, size_t max_size,
                                      const WeightFunction& weight) {
  // Level-wise a-priori: count size-j rules whose size-(j-1) sub-rules are
  // all frequent.
  std::vector<ScoredRule> out;
  std::unordered_map<Rule, double, RuleHash> frequent_prev;

  // Level 1.
  std::unordered_map<Rule, double, RuleHash> counts;
  const uint64_t n = view.num_rows();
  for (size_t c = 0; c < view.num_columns(); ++c) {
    for (uint64_t t = 0; t < n; ++t) {
      Rule r(view.num_columns());
      r.set_value(c, view.code(c, t));
      counts[r] += view.mass(t);
    }
  }
  for (auto& [r, m] : counts) {
    if (m >= min_support) frequent_prev.emplace(r, m);
  }

  auto emit = [&](const std::unordered_map<Rule, double, RuleHash>& level) {
    std::vector<const Rule*> order;
    for (const auto& [r, m] : level) order.push_back(&r);
    std::sort(order.begin(), order.end(), [](const Rule* a, const Rule* b) {
      return a->values() < b->values();
    });
    for (const Rule* r : order) {
      ScoredRule sr;
      sr.rule = *r;
      sr.weight = weight.Weight(*r);
      sr.mass = level.at(*r);
      out.push_back(std::move(sr));
    }
  };
  emit(frequent_prev);

  for (size_t level = 2; level <= max_size && !frequent_prev.empty();
       ++level) {
    // Candidates: frequent (level-1)-rules extended by a frequent 1-rule on
    // a later column; all sub-rules must be frequent.
    std::unordered_map<Rule, double, RuleHash> candidates;
    for (const auto& [r, m] : frequent_prev) {
      auto cols = r.InstantiatedColumns();
      if (cols.size() != level - 1) continue;
      for (size_t c = cols.back() + 1; c < view.num_columns(); ++c) {
        for (uint32_t v = 0; v < view.table().dictionary(c).size(); ++v) {
          Rule one(view.num_columns());
          one.set_value(c, v);
          auto it1 = counts.find(one);
          if (it1 == counts.end() || it1->second < min_support) continue;
          Rule cand = r;
          cand.set_value(c, v);
          // Downward closure: all immediate sub-rules frequent.
          bool ok = true;
          for (size_t drop : cand.InstantiatedColumns()) {
            Rule sub = cand;
            sub.clear_value(drop);
            if (sub.size() == 1) {
              auto it = counts.find(sub);
              ok = it != counts.end() && it->second >= min_support;
            } else {
              ok = frequent_prev.count(sub) > 0;
            }
            if (!ok) break;
          }
          if (ok) candidates.emplace(cand, 0.0);
        }
      }
    }
    if (candidates.empty()) break;
    for (uint64_t t = 0; t < n; ++t) {
      for (auto& [r, m] : candidates) {
        if (RuleCoversRow(r, view, t)) m += view.mass(t);
      }
    }
    std::unordered_map<Rule, double, RuleHash> frequent;
    for (auto& [r, m] : candidates) {
      if (m >= min_support) frequent.emplace(r, m);
    }
    emit(frequent);
    frequent_prev = std::move(frequent);
  }
  return out;
}

}  // namespace smartdd
