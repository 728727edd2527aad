#include "core/score.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/scan_kernels.h"
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
    const WeightFunction& weight) {
  RuleListEvaluation out;
  out.mass.assign(rules.size(), 0.0);
  out.marginal_mass.assign(rules.size(), 0.0);

  std::vector<size_t> order = OrderByWeightDesc(rules, weight);
  std::vector<double> weights(rules.size());
  double max_weight = 1;
  for (size_t i = 0; i < rules.size(); ++i) {
    weights[i] = weight.Weight(rules[i]);
    max_weight = std::max(max_weight, std::abs(weights[i]));
  }
  const ScanKernels& kern = GetScanKernels(ResolveKernelPath());
  // Per-rule match-mask scratch for one row block.
  std::vector<uint8_t> masks(rules.size() * kScanBlockRows);

  // The fold: with integer weights and every mass a non-negative integer
  // (Count, or an integer measure) whose total times the largest |weight|
  // stays below 2^53, every partial sum of the attribution sweep below is
  // an exact integer. Per block, in display order, each rule then adds the
  // mass of its matches and of its matches no earlier rule claimed, summed
  // in integers (byte-mask popcounts under Count); the doubles they add to
  // stay exact integers. The score is the sum of weight times marginal
  // mass, which equals the sweep's float bit for bit.
  const bool count = !views.empty() && !views[0]->has_measure();
  bool fold = weight.IntegerValued();
  double total = 0;
  for (const TableView* vp : views) {
    if (!fold) break;
    if (count) {
      total += static_cast<double>(vp->num_rows());
      continue;
    }
    const double* m = MassColumn(*vp);
    for (uint64_t t = 0; t < vp->num_rows(); ++t) {
      // Rejects NaN and negatives; integers stay exact below 2^53.
      fold = fold && m[t] >= 0 && std::floor(m[t]) == m[t];
      total += m[t];
    }
  }
  fold = fold && total * max_weight < kMaxExactSum;
  std::vector<uint8_t> claimed(fold ? kScanBlockRows : 0);
  std::vector<uint64_t> block_mass(fold && !count ? kScanBlockRows : 0);

  const std::vector<size_t> single = rules.size() == 1
                                         ? rules[0].InstantiatedColumns()
                                         : std::vector<size_t>{};
  std::vector<uint32_t> counts;

  // One accumulator set, advanced sequentially across the shard views in
  // shard order: the addition sequence matches the unsharded evaluation
  // exactly, so results are byte-identical for every shard count.
  for (const TableView* vp : views) {
    const TableView& view = *vp;
    const uint64_t n = view.num_rows();
    const double* mass_col = MassColumn(view);
    if (fold && count && single.size() == 1) {
      // One rule of one predicate under Count: the counting kernel tallies
      // the packed column without a mask.
      const size_t dict = view.table().dictionary(single[0]).size();
      const uint32_t want = rules[0].value(single[0]);
      counts.assign(dict, 0);
      kern.count_codes(view.table().column(single[0]).ref(), 0, n, dict,
                       counts.data());
      const double hits = want < dict ? counts[want] : 0;
      out.mass[0] += hits;
      out.marginal_mass[0] += hits;
      continue;
    }
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
      if (fold && count) {
        // Masks are 0x00 or 0xFF bytes; the block is padded with zero
        // bytes to whole words, and a word's byte sum counts its matches.
        const size_t words = (bn + 7) / 8;
        std::memset(claimed.data(), 0, words * 8);
        constexpr uint64_t kOnes = 0x0101010101010101ULL;
        auto matches = [](uint64_t bytes) { return (bytes * kOnes) >> 56; };
        for (size_t i : order) {
          uint8_t* mask = masks.data() + i * kScanBlockRows;
          std::memset(mask + bn, 0, words * 8 - bn);
          uint64_t hits = 0;
          uint64_t fresh = 0;
          for (size_t w = 0; w < words; ++w) {
            uint64_t m, c;
            std::memcpy(&m, mask + 8 * w, 8);
            std::memcpy(&c, claimed.data() + 8 * w, 8);
            hits += matches(m & kOnes);
            fresh += matches(m & ~c & kOnes);
            c |= m;
            std::memcpy(claimed.data() + 8 * w, &c, 8);
          }
          out.mass[i] += static_cast<double>(hits);
          out.marginal_mass[i] += static_cast<double>(fresh);
        }
        continue;
      }
      if (fold) {
        std::memset(claimed.data(), 0, bn);
        for (size_t j = 0; j < bn; ++j) {
          block_mass[j] = static_cast<uint64_t>(mass_col[b0 + j]);
        }
        for (size_t i : order) {
          uint8_t* mask = masks.data() + i * kScanBlockRows;
          uint64_t hits = 0;
          uint64_t fresh = 0;
          for (size_t j = 0; j < bn; ++j) {
            const uint64_t hit = mask[j] & 1;
            hits += hit * block_mass[j];
            fresh += (hit & ~claimed[j]) * block_mass[j];
            claimed[j] |= hit;
          }
          out.mass[i] += static_cast<double>(hits);
          out.marginal_mass[i] += static_cast<double>(fresh);
        }
        continue;
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
  if (fold) {
    // From 0.0, so a -0.0 product leaves the sweep's +0.0.
    for (size_t i = 0; i < rules.size(); ++i) {
      out.total_score += weights[i] * out.marginal_mass[i];
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
