#include "core/score.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "rules/rule_ops.h"

namespace smartdd {

namespace {

/// Integer sums below 2^53 are exact in a double.
constexpr double kMaxExactSum = 9007199254740992.0;  // 2^53

/// Pointer to the view's selected measure column (nullptr for Count): the
/// evaluation loops below index it directly.
const double* MassColumn(const TableView& view) {
  if (!view.has_measure()) return nullptr;
  return view.table().measure_column(*view.measure_index()).data();
}

}  // namespace

std::vector<size_t> OrderByWeightDesc(const std::vector<Rule>& rules,
                                      const WeightFunction& weight) {
  std::vector<double> w(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) w[i] = weight.Weight(rules[i]);
  std::vector<size_t> order(rules.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return w[a] > w[b]; });
  return order;
}

RuleListEvaluation EvaluateRuleList(
    const std::vector<const TableView*>& views, const std::vector<Rule>& rules,
    const WeightFunction& weight, KernelPref kernel) {
  RuleListEvaluation out;
  out.mass.assign(rules.size(), 0.0);
  out.marginal_mass.assign(rules.size(), 0.0);

  std::vector<size_t> order = OrderByWeightDesc(rules, weight);
  std::vector<double> weights(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    weights[i] = weight.Weight(rules[i]);
  }
  const ScanKernels& kern = GetScanKernels(ResolveKernelPath(kernel));
  // Per-rule match-mask scratch for one row block.
  std::vector<uint8_t> masks(rules.size() * kScanBlockRows);

  // Single-rule Count fast path: with one rule and no measure column every
  // match contributes the same 1.0 to mass and the same weights[0] to the
  // score, so the per-row attribution sweep collapses to a match count —
  // count_codes for <= 1 predicate, a mask popcount otherwise. For an
  // integer weight w with rows * |w| < 2^53 every partial sum of the sweep
  // is an exact integer, so count * w is the sweep's float bit for bit;
  // any other weight takes the sweep.
  bool count_fold = rules.size() == 1 && weight.IntegerValued();
  uint64_t rows = 0;
  for (const TableView* vp : views) {
    count_fold = count_fold && !vp->has_measure();
    rows += vp->num_rows();
  }
  if (count_fold &&
      static_cast<double>(rows) * std::abs(weights[0]) < kMaxExactSum) {
    const Rule& r = rules[0];
    uint64_t total = 0;
    std::vector<uint32_t> counts;
    for (const TableView* vp : views) {
      const TableView& view = *vp;
      const uint64_t n = view.num_rows();
      const std::vector<size_t> inst = r.InstantiatedColumns();
      if (inst.empty()) {
        total += n;
      } else if (inst.size() == 1) {
        const size_t c = inst[0];
        const size_t dict = view.table().dictionary(c).size();
        const uint32_t want = r.value(c);
        counts.assign(dict, 0);
        kern.count_codes(view.table().column(c).ref(), 0, n, dict,
                         counts.data());
        if (want < dict) total += counts[want];
      } else {
        for (uint64_t b0 = 0; b0 < n; b0 += kScanBlockRows) {
          const uint64_t b1 = std::min(n, b0 + kScanBlockRows);
          ComputeRuleMask(r, view.table(), b0, b1, masks.data(), kern);
          const size_t bn = static_cast<size_t>(b1 - b0);
          for (size_t j = 0; j < bn; ++j) total += masks[j] != 0 ? 1 : 0;
        }
      }
    }
    out.mass[0] = static_cast<double>(total);
    out.marginal_mass[0] = static_cast<double>(total);
    // 0.0 + turns a -0.0 product into the +0.0 the sweep leaves.
    out.total_score = 0.0 + static_cast<double>(total) * weights[0];
    return out;
  }

  // One accumulator set, advanced sequentially across the shard views in
  // shard order: the addition sequence matches the unsharded evaluation
  // exactly, so results are byte-identical for every shard count.
  for (const TableView* vp : views) {
    const TableView& view = *vp;
    const uint64_t n = view.num_rows();
    const double* mass_col = MassColumn(view);
    // Per-rule match masks over each row block through the dispatched
    // kernels, then one sequential attribution sweep per block — the same
    // per-row, ordered-rule addition sequence as a direct loop, so the
    // floats are bit-identical on every kernel path.
    for (uint64_t b0 = 0; b0 < n; b0 += kScanBlockRows) {
      const uint64_t b1 = std::min(n, b0 + kScanBlockRows);
      const size_t bn = static_cast<size_t>(b1 - b0);
      for (size_t i = 0; i < rules.size(); ++i) {
        ComputeRuleMask(rules[i], view.table(), b0, b1,
                        masks.data() + i * kScanBlockRows, kern);
      }
      for (size_t j = 0; j < bn; ++j) {
        const double m = mass_col ? mass_col[b0 + j] : 1.0;
        bool attributed = false;
        for (size_t oi = 0; oi < order.size(); ++oi) {
          size_t i = order[oi];
          if (masks[i * kScanBlockRows + j] != 0) {
            out.mass[i] += m;
            if (!attributed) {
              out.marginal_mass[i] += m;
              out.total_score += m * weights[i];
              attributed = true;
            }
          }
        }
      }
    }
  }
  return out;
}

double ScoreRuleSet(const TableView& view, const std::vector<Rule>& rules,
                    const WeightFunction& weight) {
  return EvaluateRuleList({&view}, rules, weight).total_score;
}

double ScoreRuleListInOrder(const TableView& view,
                            const std::vector<Rule>& rules,
                            const WeightFunction& weight) {
  std::vector<double> weights(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    weights[i] = weight.Weight(rules[i]);
  }
  std::vector<CompiledRule> compiled;
  compiled.reserve(rules.size());
  for (const Rule& r : rules) compiled.emplace_back(r, view.table());
  double score = 0;
  const uint64_t n = view.num_rows();
  const double* mass_col = MassColumn(view);
  for (uint64_t t = 0; t < n; ++t) {
    for (size_t i = 0; i < rules.size(); ++i) {
      if (compiled[i].Covers(static_cast<uint32_t>(t))) {
        score += (mass_col ? mass_col[t] : 1.0) * weights[i];
        break;  // first rule in *list order* claims the tuple
      }
    }
  }
  return score;
}

}  // namespace smartdd
