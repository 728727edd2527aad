// Correctness oracles for the two properties BRS's greedy loop rests on
// (arXiv 1412.0364), on small random tables:
//  - Lemma 3: Score is submodular. For rule sets A ⊆ B and a rule r, the
//    gain of adding r to A is at least its gain on B. Under Count with
//    integer weights every score is an integer, so the comparisons are
//    exact. Each score is also checked against a brute-force sum over the
//    rows of the heaviest covering rule's weight.
//  - Lemma 3's consequence: BRS is within 1-(1-1/k)^k of the best set of k
//    rules with W <= mw, found by enumerating every k-subset on tables
//    small enough to do so. Under Count with integer weights the bound is
//    an exact integer comparison (3/4 at k=2, 19/27 at k=3).
//  - §6.1: the mw cutoff only prunes. A run whose max_weight is at or above
//    the heaviest rule the greedy picks returns the same bytes as a run
//    without a cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/brs.h"
#include "core/score.h"
#include "storage/table.h"
#include "storage/table_view.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

/// A random table: 1-max_cols columns of 1-max_card values with skewed
/// draws, 1-max_rows rows, and for Sum a non-integer measure.
Table RandomTable(Rng& rng, bool sum, size_t max_cols = 6,
                  uint64_t max_card = 4, uint64_t max_rows = 200) {
  const size_t cols = 1 + rng.UniformInt(max_cols);
  std::vector<uint64_t> card(cols);
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) {
    card[c] = 1 + rng.UniformInt(max_card);
    names.push_back("c" + std::to_string(c));
  }
  Table table(names);
  if (sum) table.AddMeasureColumn("m");
  const uint64_t rows = 1 + rng.UniformInt(max_rows);
  std::vector<std::string> values(cols);
  for (uint64_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
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

/// A random rule: each column starred or set to one of its codes.
Rule RandomRule(Rng& rng, const Table& table) {
  Rule r(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (rng.Bernoulli(0.5)) {
      r.set_value(c, static_cast<uint32_t>(
                         rng.UniformInt(table.dictionary(c).size())));
    }
  }
  return r;
}

/// True when `r` matches row `t` of `view` on every instantiated column.
bool CoversRow(const TableView& view, const Rule& r, uint64_t t) {
  for (size_t c = 0; c < view.num_columns(); ++c) {
    if (!r.is_star(c) && r.value(c) != view.code(c, t)) return false;
  }
  return true;
}

/// Score by definition: each row counts the weight of the heaviest rule in
/// the set covering it (0 when none does).
double BruteForceScore(const TableView& view, const std::vector<Rule>& set,
                       const WeightFunction& weight) {
  double score = 0;
  for (uint64_t t = 0; t < view.num_rows(); ++t) {
    double best = 0;
    for (const Rule& r : set) {
      if (CoversRow(view, r, t)) best = std::max(best, weight.Weight(r));
    }
    score += best;
  }
  return score;
}

TEST(GreedyOracleTest, ScoreIsSubmodular) {
  constexpr size_t kTables = 60;
  constexpr size_t kTrials = 40;
  Rng rng(14120364);
  size_t strict = 0;  // trials where B's extra rules lowered r's gain
  for (size_t i = 0; i < kTables; ++i) {
    Table table = RandomTable(rng, /*sum=*/false);
    TableView view(table);
    // Integer weights: Size, and a linear weight of 1-3 per column.
    SizeWeight size_weight;
    std::vector<double> column_weights;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      column_weights.push_back(static_cast<double>(1 + rng.UniformInt(3)));
    }
    LinearColumnWeight linear_weight(column_weights);
    const WeightFunction& weight =
        i % 2 == 0 ? static_cast<const WeightFunction&>(size_weight)
                   : linear_weight;
    for (size_t trial = 0; trial < kTrials; ++trial) {
      std::vector<Rule> b;
      std::vector<Rule> a;
      const size_t b_size = rng.UniformInt(6);
      for (size_t j = 0; j < b_size; ++j) {
        b.push_back(RandomRule(rng, table));
        if (rng.Bernoulli(0.5)) a.push_back(b.back());
      }
      const Rule r = RandomRule(rng, table);
      std::vector<Rule> a_r = a;
      a_r.push_back(r);
      std::vector<Rule> b_r = b;
      b_r.push_back(r);
      const std::string label = "table " + std::to_string(i) + " trial " +
                                std::to_string(trial) + " (" + weight.name() +
                                ")";
      for (const std::vector<Rule>* set : {&a, &b, &a_r, &b_r}) {
        EXPECT_EQ(ScoreRuleSet(view, *set, weight),
                  BruteForceScore(view, *set, weight))
            << label;
      }
      const double gain_a =
          ScoreRuleSet(view, a_r, weight) - ScoreRuleSet(view, a, weight);
      const double gain_b =
          ScoreRuleSet(view, b_r, weight) - ScoreRuleSet(view, b, weight);
      EXPECT_GE(gain_a, gain_b) << label;
      EXPECT_GE(gain_b, 0) << label;
      strict += gain_a > gain_b;
    }
  }
  // The generator must reach the interesting case, not only equal gains.
  EXPECT_GT(strict, kTables * kTrials / 10);
}

/// Every rule with W(r) <= mw covering at least one row (a rule covering
/// none adds nothing to any set's score).
std::vector<Rule> RuleUniverse(const TableView& view,
                               const WeightFunction& weight, double mw) {
  const Table& table = view.table();
  std::vector<Rule> rules{Rule(table.num_columns())};
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const size_t n = rules.size();
    for (uint32_t v = 0; v < table.dictionary(c).size(); ++v) {
      for (size_t i = 0; i < n; ++i) {
        rules.push_back(rules[i]);
        rules.back().set_value(c, v);
      }
    }
  }
  std::vector<Rule> out;
  for (const Rule& r : rules) {
    if (weight.Weight(r) > mw) continue;
    for (uint64_t t = 0; t < view.num_rows(); ++t) {
      if (CoversRow(view, r, t)) {
        out.push_back(r);
        break;
      }
    }
  }
  return out;
}

/// The best Score over every min(k, |universe|)-subset of the universe
/// (Score is monotone, so smaller subsets never beat the largest ones).
double OptimalScore(const TableView& view, const std::vector<Rule>& universe,
                    const WeightFunction& weight, size_t k) {
  const size_t size = std::min(k, universe.size());
  std::vector<size_t> pick(size);
  std::vector<Rule> set(size, Rule(view.num_columns()));
  double best = 0;
  std::function<void(size_t, size_t)> choose = [&](size_t depth,
                                                   size_t from) {
    if (depth == size) {
      for (size_t j = 0; j < size; ++j) set[j] = universe[pick[j]];
      best = std::max(best, ScoreRuleSet(view, set, weight));
      return;
    }
    for (size_t i = from; i + (size - depth) <= universe.size(); ++i) {
      pick[depth] = i;
      choose(depth + 1, i + 1);
    }
  };
  choose(0, 0);
  return best;
}

TEST(GreedyOracleTest, BrsIsWithinTheLemma3BoundOfTheOptimum) {
  constexpr size_t kTables = 180;
  Rng rng(14120365);
  size_t suboptimal = 0;  // runs where the greedy fell short of OPT
  for (size_t i = 0; i < kTables; ++i) {
    Table table = RandomTable(rng, /*sum=*/false, /*max_cols=*/3,
                              /*max_card=*/3, /*max_rows=*/60);
    TableView view(table);
    SizeWeight size_weight;
    BitsWeight bits_weight = BitsWeight::FromTable(table);
    const WeightFunction& weight =
        i % 2 == 0 ? static_cast<const WeightFunction&>(size_weight)
                   : bits_weight;
    BrsOptions options;
    options.k = 1 + (i / 2) % 3;
    options.num_threads = 1;
    // Every other block of six tables caps mw one below the heaviest rule.
    const double max_w = weight.MaxPossibleWeight(table.num_columns());
    if ((i / 6) % 2 == 1 && max_w >= 2) options.max_weight = max_w - 1;
    const double mw = std::min(options.max_weight, max_w);
    const std::string label =
        "table " + std::to_string(i) + " (" +
        std::to_string(table.num_columns()) + " cols, " +
        std::to_string(table.num_rows()) + " rows, " + weight.name() +
        ", k=" + std::to_string(options.k) + ", mw=" + std::to_string(mw) +
        ")";

    auto brs = RunBrs({&view}, weight, options);
    ASSERT_TRUE(brs.ok()) << label << ": " << brs.status().ToString();
    const double got = brs->total_score;
    const double opt =
        OptimalScore(view, RuleUniverse(view, weight, mw), weight, options.k);
    EXPECT_LE(got, opt) << label;
    switch (options.k) {
      case 1:
        EXPECT_EQ(got, opt) << label;
        break;
      case 2:
        EXPECT_GE(4 * got, 3 * opt) << label;  // 1 - (1/2)^2 = 3/4
        break;
      default:
        EXPECT_GE(27 * got, 19 * opt) << label;  // 1 - (2/3)^3 = 19/27
        break;
    }
    suboptimal += got < opt;
  }
  // The generator must reach tables where the greedy is not optimal (10
  // of these 180), or the bound is only ever checked at equality.
  EXPECT_GT(suboptimal, 0u);
}

void ExpectSameBytes(const BrsResult& a, const BrsResult& b,
                     const std::string& label) {
  ASSERT_EQ(a.rules.size(), b.rules.size()) << label;
  for (size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].rule, b.rules[i].rule) << label << " rule " << i;
    EXPECT_EQ(a.rules[i].weight, b.rules[i].weight) << label << " rule " << i;
    EXPECT_EQ(a.rules[i].mass, b.rules[i].mass) << label << " rule " << i;
    EXPECT_EQ(a.rules[i].marginal_mass, b.rules[i].marginal_mass)
        << label << " rule " << i;
    EXPECT_EQ(a.rules[i].marginal_value, b.rules[i].marginal_value)
        << label << " rule " << i;
  }
  EXPECT_EQ(a.total_score, b.total_score) << label;
}

TEST(GreedyOracleTest, MaxWeightAtOrAboveEveryPickOnlyPrunes) {
  constexpr size_t kTables = 120;
  Rng rng(20161121);
  size_t capped = 0;  // runs whose cap sat below the weight function's max
  for (size_t i = 0; i < kTables; ++i) {
    const bool sum = i % 2 == 1;
    Table table = RandomTable(rng, sum);
    TableView view(table);
    if (sum) view.SelectMeasure(0);
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

    BrsOptions options;
    options.k = 1 + rng.UniformInt(5);
    options.num_threads = 1;
    auto unbounded = RunBrs({&view}, weight, options);
    ASSERT_TRUE(unbounded.ok()) << label << ": "
                                << unbounded.status().ToString();
    if (unbounded->rules.empty()) continue;
    double heaviest = 0;
    for (const ScoredRule& sr : unbounded->rules) {
      heaviest = std::max(heaviest, sr.weight);
    }
    capped += heaviest < weight.MaxPossibleWeight(table.num_columns());
    // At the heaviest pick exactly, and with some slack above it.
    for (double mw : {heaviest, heaviest + 0.5}) {
      options.max_weight = mw;
      auto bounded = RunBrs({&view}, weight, options);
      ASSERT_TRUE(bounded.ok()) << label << ": "
                                << bounded.status().ToString();
      ExpectSameBytes(*bounded, *unbounded,
                      label + " mw=" + std::to_string(mw));
    }
  }
  // Enough caps must cut the rule space for the check to bite.
  EXPECT_GT(capped, kTables / 3);
}

}  // namespace
}  // namespace smartdd
