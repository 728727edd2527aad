#include "core/score.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synth.h"
#include "rules/rule_ops.h"
#include "storage/shard_plan.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;
using ::smartdd::testing::R;

// The paper's Table 2 situation in miniature: verify MCount semantics by
// hand. Table: 3 Walmart rows (one of them cookies), 2 Target/bicycles rows.
class ScoreFixture : public ::testing::Test {
 protected:
  ScoreFixture()
      : table_(MakeTable({{"Walmart", "cookies"},
                          {"Walmart", "soap"},
                          {"Walmart", "soap"},
                          {"Target", "bicycles"},
                          {"Target", "bicycles"}},
                         {"Store", "Product"})),
        view_(table_) {}

  Table table_;
  TableView view_;
  SizeWeight weight_;
};

TEST_F(ScoreFixture, EvaluateComputesCountAndMarginalCount) {
  std::vector<Rule> rules = {R(table_, {"Walmart", "cookies"}),
                             R(table_, {"Walmart", "?"})};
  RuleListEvaluation eval = EvaluateRuleList({&view_}, rules, weight_);
  // Counts: rule 0 covers 1 tuple, rule 1 covers 3.
  EXPECT_DOUBLE_EQ(eval.mass[0], 1.0);
  EXPECT_DOUBLE_EQ(eval.mass[1], 3.0);
  // MCounts: (Walmart, cookies) has weight 2 so it claims its tuple first;
  // (Walmart, ?) gets the remaining 2.
  EXPECT_DOUBLE_EQ(eval.marginal_mass[0], 1.0);
  EXPECT_DOUBLE_EQ(eval.marginal_mass[1], 2.0);
  // Score = 1*2 + 2*1.
  EXPECT_DOUBLE_EQ(eval.total_score, 4.0);
}

TEST_F(ScoreFixture, AttributionFollowsWeightNotInputOrder) {
  // Same rules in the other input order: outputs must be identical per rule.
  std::vector<Rule> rules = {R(table_, {"Walmart", "?"}),
                             R(table_, {"Walmart", "cookies"})};
  RuleListEvaluation eval = EvaluateRuleList({&view_}, rules, weight_);
  EXPECT_DOUBLE_EQ(eval.marginal_mass[0], 2.0);
  EXPECT_DOUBLE_EQ(eval.marginal_mass[1], 1.0);
  EXPECT_DOUBLE_EQ(eval.total_score, 4.0);
}

TEST_F(ScoreFixture, UncoveredTuplesContributeNothing) {
  std::vector<Rule> rules = {R(table_, {"Target", "?"})};
  RuleListEvaluation eval = EvaluateRuleList({&view_}, rules, weight_);
  EXPECT_DOUBLE_EQ(eval.total_score, 2.0);  // 2 tuples * weight 1
}

TEST_F(ScoreFixture, EmptyRuleListScoresZero) {
  RuleListEvaluation eval = EvaluateRuleList({&view_}, {}, weight_);
  EXPECT_DOUBLE_EQ(eval.total_score, 0.0);
}

TEST_F(ScoreFixture, TrivialRuleClaimsEverythingAtZeroWeight) {
  std::vector<Rule> rules = {Rule::Trivial(2), R(table_, {"Walmart", "?"})};
  // Trivial rule has weight 0, Walmart weight 1: Walmart is evaluated first.
  RuleListEvaluation eval = EvaluateRuleList({&view_}, rules, weight_);
  EXPECT_DOUBLE_EQ(eval.marginal_mass[1], 3.0);
  EXPECT_DOUBLE_EQ(eval.marginal_mass[0], 2.0);
  EXPECT_DOUBLE_EQ(eval.total_score, 3.0);
}

TEST(OrderByWeightTest, DescendingAndStable) {
  Table t = MakeTable({{"a", "b", "c"}});
  SizeWeight w;
  Rule r1 = R(t, {"a", "?", "?"});
  Rule r2 = R(t, {"?", "b", "?"});
  Rule r3 = R(t, {"a", "b", "?"});
  std::vector<Rule> rules = {r1, r2, r3};
  auto order = OrderByWeightDesc(rules, w);
  EXPECT_EQ(order, (std::vector<size_t>{2, 0, 1}));  // size2 then ties stable
}

// Lemma 1 property: evaluating a list sorted by descending weight scores at
// least as high as any other order of the same rules.
TEST(Lemma1PropertyTest, SortedOrderDominatesRandomOrders) {
  SynthSpec spec;
  spec.rows = 300;
  spec.cardinalities = {4, 4, 3};
  spec.seed = 21;
  Table t = GenerateSyntheticTable(spec);
  TableView view(t);
  SizeWeight weight;
  Rng rng(22);

  for (int trial = 0; trial < 40; ++trial) {
    // Random list of 4 rules drawn from tuples.
    std::vector<Rule> rules;
    for (int i = 0; i < 4; ++i) {
      uint64_t row = rng.UniformInt(t.num_rows());
      Rule r(t.num_columns());
      for (size_t c = 0; c < t.num_columns(); ++c) {
        if (rng.Bernoulli(0.5)) r.set_value(c, t.code(c, row));
      }
      rules.push_back(r);
    }
    double in_order = ScoreRuleListInOrder(view, rules, weight);
    auto order = OrderByWeightDesc(rules, weight);
    std::vector<Rule> sorted;
    for (size_t i : order) sorted.push_back(rules[i]);
    double sorted_score = ScoreRuleListInOrder(view, sorted, weight);
    ASSERT_GE(sorted_score + 1e-9, in_order)
        << "Lemma 1 violated on trial " << trial;
    // And the set-score equals the sorted-order score.
    ASSERT_NEAR(ScoreRuleSet(view, rules, weight), sorted_score, 1e-9);
  }
}

// Lemma 3 property: Score is submodular — the marginal gain of adding a
// rule to a set is no larger when added to a superset.
TEST(SubmodularityPropertyTest, MarginalGainsShrinkOnSupersets) {
  SynthSpec spec;
  spec.rows = 250;
  spec.cardinalities = {3, 4, 3};
  spec.seed = 31;
  Table t = GenerateSyntheticTable(spec);
  TableView view(t);
  SizeWeight weight;
  Rng rng(32);

  auto random_rule = [&]() {
    uint64_t row = rng.UniformInt(t.num_rows());
    Rule r(t.num_columns());
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (rng.Bernoulli(0.6)) r.set_value(c, t.code(c, row));
    }
    return r;
  };

  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Rule> small;
    for (int i = 0; i < 2; ++i) small.push_back(random_rule());
    std::vector<Rule> big = small;
    for (int i = 0; i < 2; ++i) big.push_back(random_rule());
    Rule s = random_rule();

    auto with = [&](std::vector<Rule> set) {
      set.push_back(s);
      return ScoreRuleSet(view, set, weight);
    };
    double gain_small = with(small) - ScoreRuleSet(view, small, weight);
    double gain_big = with(big) - ScoreRuleSet(view, big, weight);
    ASSERT_GE(gain_small + 1e-9, gain_big)
        << "submodularity violated on trial " << trial;
  }
}

TEST(ScoreSumAggregateTest, UsesMeasureMass) {
  Table t({"k"});
  t.AddMeasureColumn("m");
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{10.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{5.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b"}, std::vector<double>{1.0}).ok());
  TableView v(t);
  v.SelectMeasure(0);
  SizeWeight w;
  std::vector<Rule> rules = {R(t, {"a"})};
  RuleListEvaluation eval = EvaluateRuleList({&v}, rules, w);
  EXPECT_DOUBLE_EQ(eval.mass[0], 15.0);       // Sum(r)
  EXPECT_DOUBLE_EQ(eval.marginal_mass[0], 15.0);  // MSum(r)
  EXPECT_DOUBLE_EQ(eval.total_score, 15.0);
}

// A one-rule list under Count may fold its evaluation into a match count,
// which is exact only for an integer-valued weight; any other weight takes
// the block sweep. Either way every figure must equal the evaluation over
// an all-ones measure: for rules with 0, 1 and 2 instantiated columns, over
// 1 and 2 shard views.
TEST(SingleRuleCountTest, MatchesSweepOverOnes) {
  SynthSpec spec;
  spec.rows = 3001;
  spec.cardinalities = {4, 6, 3};
  spec.seed = 28;
  const Table synth = GenerateSyntheticTable(spec);
  Table table = Table::EmptyLike(synth);
  table.AddMeasureColumn("one");
  std::vector<uint32_t> codes(synth.num_columns());
  const std::vector<double> one = {1.0};
  for (uint64_t r = 0; r < synth.num_rows(); ++r) {
    synth.GetRow(r, codes.data());
    table.AppendRow(codes, one);
  }
  table.Freeze();

  Rule single(table.num_columns());
  single.set_value(1, table.code(1, 0));
  Rule pair(table.num_columns());
  pair.set_value(0, table.code(0, 0));
  pair.set_value(2, table.code(2, 0));
  SizeWeight size;
  BitsWeight fractional({0.1, 0.7, 1.3});

  for (size_t shards : {size_t{1}, size_t{2}}) {
    const ShardPlan plan = ShardPlan::Make(table.num_rows(), shards);
    std::vector<Table> slices;
    for (size_t s = 0; s < shards; ++s) {
      slices.push_back(
          table.SliceRows(plan.shard(s).begin, plan.shard(s).end));
    }
    std::vector<TableView> count_views;
    std::vector<TableView> sum_views;
    for (const Table& t : slices) {
      count_views.emplace_back(t);
      sum_views.emplace_back(t, 0);
    }
    std::vector<const TableView*> count;
    std::vector<const TableView*> sum;
    for (size_t s = 0; s < shards; ++s) {
      count.push_back(&count_views[s]);
      sum.push_back(&sum_views[s]);
    }
    for (const Rule& rule : {Rule(table.num_columns()), single, pair}) {
      for (const WeightFunction* weight :
           {static_cast<const WeightFunction*>(&size),
            static_cast<const WeightFunction*>(&fractional)}) {
        const std::string label = weight->name() + " size=" +
                                  std::to_string(rule.size()) +
                                  " shards=" + std::to_string(shards);
        const RuleListEvaluation got = EvaluateRuleList(count, {rule}, *weight);
        const RuleListEvaluation want = EvaluateRuleList(sum, {rule}, *weight);
        EXPECT_GT(want.mass[0], 0) << label;
        // EXPECT_EQ on doubles is exact.
        EXPECT_EQ(got.mass[0], want.mass[0]) << label;
        EXPECT_EQ(got.marginal_mass[0], want.marginal_mass[0]) << label;
        EXPECT_EQ(got.total_score, want.total_score) << label;
      }
    }
    // The fractional weights' repeated additions drift from count * w, so
    // a fold that multiplied would show above.
    const RuleListEvaluation drift =
        EvaluateRuleList(sum, {single}, fractional);
    EXPECT_NE(drift.total_score, drift.mass[0] * 0.7);
  }
}

/// SizeWeight that does not claim integer values, so an evaluation under
/// it takes the per-row sweep whatever the masses.
class SweepSizeWeight : public WeightFunction {
 public:
  double Weight(const Rule& rule) const override { return size_.Weight(rule); }
  std::string name() const override { return "SweepSize"; }
  double MaxPossibleWeight(size_t num_columns) const override {
    return size_.MaxPossibleWeight(num_columns);
  }

 private:
  SizeWeight size_;
};

// With an integer weight and integer masses EvaluateRuleList folds each
// block into per-rule mass counts instead of sweeping row by row. The fold
// must give every figure of the sweep bit for bit: lists of k = 1..4
// overlapping rules of 0 to 3 predicates, under Count and an integer Sum,
// on 1 and 2 shard views. A fractional measure keeps the sweep, whose
// score is the row-order sum ScoreRuleListInOrder makes.
TEST(RuleListFoldTest, FoldMatchesSweep) {
  SynthSpec spec;
  spec.rows = 9001;  // three blocks, the last partial
  spec.cardinalities = {4, 7, 3, 5};
  spec.zipf = {1.3, 0.9, 1.1, 0.7};
  spec.seed = 32;
  const Table synth = GenerateSyntheticTable(spec);
  Table table = Table::EmptyLike(synth);
  table.AddMeasureColumn("int");
  table.AddMeasureColumn("half");
  std::vector<uint32_t> codes(synth.num_columns());
  Rng rng(32);
  for (uint64_t r = 0; r < synth.num_rows(); ++r) {
    synth.GetRow(r, codes.data());
    const double m = static_cast<double>(rng.UniformInt(1000));
    table.AppendRow(codes, std::vector<double>{m, m + 0.5});
  }
  table.Freeze();

  SizeWeight size;
  SweepSizeWeight sweep;
  for (size_t shards : {size_t{1}, size_t{2}}) {
    const ShardPlan plan = ShardPlan::Make(table.num_rows(), shards);
    std::vector<Table> slices;
    for (size_t s = 0; s < shards; ++s) {
      slices.push_back(
          table.SliceRows(plan.shard(s).begin, plan.shard(s).end));
    }
    for (int measure : {-1, 0, 1}) {
      std::vector<TableView> views;
      for (const Table& t : slices) {
        views.emplace_back(t);
        if (measure >= 0) views.back().SelectMeasure(measure);
      }
      std::vector<const TableView*> ptrs;
      for (const TableView& v : views) ptrs.push_back(&v);
      for (size_t k = 1; k <= 4; ++k) {
        // Rules read off rows, keeping up to 3 of their values, so that
        // they overlap and nest.
        std::vector<Rule> rules;
        for (size_t i = 0; i < k; ++i) {
          table.GetRow(rng.UniformInt(table.num_rows()), codes.data());
          Rule r(table.num_columns());
          const size_t preds = (i + k) % 4;
          for (size_t p = 0; p < preds; ++p) {
            const size_t c = (i + 2 * p) % table.num_columns();
            r.set_value(c, codes[c]);
          }
          rules.push_back(r);
        }
        const std::string label = "measure=" + std::to_string(measure) +
                                  " k=" + std::to_string(k) +
                                  " shards=" + std::to_string(shards);
        const RuleListEvaluation got = EvaluateRuleList(ptrs, rules, size);
        const RuleListEvaluation want = EvaluateRuleList(ptrs, rules, sweep);
        for (size_t i = 0; i < k; ++i) {
          // EXPECT_EQ on doubles is exact.
          EXPECT_EQ(got.mass[i], want.mass[i]) << label << " rule " << i;
          EXPECT_EQ(got.marginal_mass[i], want.marginal_mass[i])
              << label << " rule " << i;
        }
        EXPECT_EQ(got.total_score, want.total_score) << label;
        EXPECT_GT(got.total_score, 0) << label;
        if (measure == 1 && shards == 1) {
          std::vector<Rule> sorted;
          for (size_t i : OrderByWeightDesc(rules, size)) {
            sorted.push_back(rules[i]);
          }
          EXPECT_EQ(got.total_score,
                    ScoreRuleListInOrder(*ptrs[0], sorted, size))
              << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace smartdd
