// Correctness oracle for BRS (paper Algorithm 1 with the a-priori marginal
// search of Algorithm 2). On small random tables it enumerates every rule
// by brute force and checks that each greedy pick is the exhaustive argmax
// of the marginal gain
//     sum over rows t covered by r of mass(t) * max(0, W(r) - cw(t)),
// where cw(t) is the highest weight among the earlier picks covering t, with
// the documented tie-break: higher weight, then lexicographically smaller
// rule values. This checks the paper's answer, not only self-agreement: a
// pruning bound that discarded the winner would show up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/brs.h"
#include "storage/table.h"
#include "storage/table_view.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

struct Pick {
  Rule rule{0};
  double weight = 0;
  double mass = 0;
  double marginal = 0;
};

/// Every rule over a table, indexed in mixed radix: per column, digit 0 is
/// the star and digit v + 1 is dictionary code v.
class RuleSpace {
 public:
  RuleSpace(const TableView& view, const WeightFunction& weight)
      : view_(view), cols_(view.num_columns()) {
    size_t total = 1;
    for (size_t c = 0; c < cols_; ++c) {
      stride_.push_back(total);
      total *= view.table().dictionary(c).size() + 1;
    }
    rules_.reserve(total);
    weights_.reserve(total);
    for (size_t idx = 0; idx < total; ++idx) {
      Rule r(cols_);
      size_t rest = idx;
      for (size_t c = 0; c < cols_; ++c) {
        const size_t radix = view.table().dictionary(c).size() + 1;
        const size_t digit = rest % radix;
        rest /= radix;
        if (digit != 0) r.set_value(c, static_cast<uint32_t>(digit - 1));
      }
      weights_.push_back(weight.Weight(r));
      rules_.push_back(std::move(r));
    }
  }

  /// The exhaustive best pick against `covered`, or none when no rule has a
  /// positive marginal. Each rule's sums run over its rows in ascending
  /// order, the order the search adds them in.
  std::optional<Pick> Best(const std::vector<double>& covered) const {
    std::vector<double> marginal(rules_.size(), 0.0);
    std::vector<double> mass(rules_.size(), 0.0);
    for (uint64_t t = 0; t < view_.num_rows(); ++t) {
      const double m = view_.mass(t);
      // The 2^cols rules covering row t: each column starred or set.
      for (size_t mask = 0; mask < (size_t{1} << cols_); ++mask) {
        size_t idx = 0;
        for (size_t c = 0; c < cols_; ++c) {
          if (mask & (size_t{1} << c)) {
            idx += (view_.code(c, t) + 1) * stride_[c];
          }
        }
        mass[idx] += m;
        marginal[idx] += m * std::max(0.0, weights_[idx] - covered[t]);
      }
    }
    std::optional<Pick> best;
    // Index 0 is the trivial rule, which the search never proposes.
    for (size_t idx = 1; idx < rules_.size(); ++idx) {
      if (marginal[idx] <= 0) continue;
      bool better = !best || marginal[idx] > best->marginal;
      if (best && marginal[idx] == best->marginal) {
        better = weights_[idx] != best->weight
                     ? weights_[idx] > best->weight
                     : rules_[idx].values() < best->rule.values();
      }
      if (better) {
        best = Pick{rules_[idx], weights_[idx], mass[idx], marginal[idx]};
      }
    }
    return best;
  }

 private:
  const TableView& view_;
  size_t cols_;
  std::vector<size_t> stride_;
  std::vector<Rule> rules_;
  std::vector<double> weights_;
};

/// A random table: 1-6 columns of 1-4 values, 1-200 rows, and for Sum a
/// non-integer measure.
Table RandomTable(Rng& rng, bool sum) {
  const size_t cols = 1 + rng.UniformInt(6);
  std::vector<uint64_t> card(cols);
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) {
    card[c] = 1 + rng.UniformInt(4);
    names.push_back("c" + std::to_string(c));
  }
  Table table(names);
  if (sum) table.AddMeasureColumn("m");
  const uint64_t rows = 1 + rng.UniformInt(200);
  std::vector<std::string> values(cols);
  for (uint64_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      // Skewed draws so that some rules dominate and others tie.
      const uint64_t v = std::min(rng.UniformInt(card[c]),
                                  rng.UniformInt(card[c]));
      values[c] = "v" + std::to_string(v);
    }
    std::vector<double> measures;
    if (sum) {
      measures.push_back(static_cast<double>(rng.UniformInt(1000)) / 7.0);
    }
    EXPECT_TRUE(table.AppendRowValues(values, measures).ok());
  }
  table.Freeze();
  return table;
}

TEST(BrsOracleTest, EveryGreedyPickIsTheExhaustiveArgmax) {
  constexpr size_t kTables = 120;
  constexpr size_t kSteps = 5;
  Rng rng(20160516);
  for (size_t i = 0; i < kTables; ++i) {
    const bool sum = i % 2 == 1;
    Table table = RandomTable(rng, sum);
    TableView view(table);
    if (sum) view.SelectMeasure(0);
    // Size, Bits, and a custom linear weight with non-integer columns.
    SizeWeight size_weight;
    BitsWeight bits_weight = BitsWeight::FromTable(table);
    std::vector<double> column_weights;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      column_weights.push_back(0.25 + 2.5 * rng.UniformDouble());
    }
    LinearColumnWeight custom_weight(column_weights);
    const WeightFunction* weights[] = {&size_weight, &bits_weight,
                                       &custom_weight};
    const WeightFunction& weight = *weights[(i / 2) % 3];
    const std::string label = "table " + std::to_string(i) + " (" +
                              std::to_string(table.num_columns()) + " cols, " +
                              std::to_string(table.num_rows()) + " rows, " +
                              (sum ? "Sum" : "Count") + "/" + weight.name() +
                              ")";

    std::vector<Pick> picks;
    BrsOptions options;
    options.k = kSteps;
    options.num_threads = 1;
    options.on_rule = [&](const ScoredRule& sr, size_t) {
      picks.push_back(Pick{sr.rule, sr.weight, sr.mass, sr.marginal_value});
      return true;
    };
    auto result = RunBrs({&view}, weight, options);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();

    RuleSpace space(view, weight);
    std::vector<double> covered(view.num_rows(), 0.0);
    size_t step = 0;
    for (; step < kSteps; ++step) {
      std::optional<Pick> want = space.Best(covered);
      if (!want) break;
      ASSERT_LT(step, picks.size())
          << label << ": BRS stopped at step " << step
          << " though a rule has positive marginal " << want->marginal;
      const Pick& got = picks[step];
      EXPECT_EQ(got.rule, want->rule) << label << " step " << step;
      EXPECT_EQ(got.weight, want->weight) << label << " step " << step;
      EXPECT_EQ(got.mass, want->mass) << label << " step " << step;
      EXPECT_EQ(got.marginal, want->marginal) << label << " step " << step;
      for (uint64_t t = 0; t < view.num_rows(); ++t) {
        bool covers = true;
        for (size_t c = 0; c < table.num_columns() && covers; ++c) {
          covers = want->rule.is_star(c) ||
                   want->rule.value(c) == view.code(c, t);
        }
        if (covers) covered[t] = std::max(covered[t], want->weight);
      }
    }
    EXPECT_EQ(picks.size(), step)
        << label << ": BRS picked past the optimum";
  }
}

}  // namespace
}  // namespace smartdd
