#include "core/baseline.h"

#include <gtest/gtest.h>

#include "core/brs.h"
#include "data/synth.h"
#include "rules/rule_ops.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;
using ::smartdd::testing::R;

TEST(EnumerateSupportedRulesTest, CountsDistinctRules) {
  // Two distinct tuples over 2 columns: rules are 2 size-1 per column
  // (4 total, but the shared value "x"? no sharing here) + 2 size-2.
  Table t = MakeTable({{"a", "x"}, {"b", "y"}});
  TableView v(t);
  auto rules = EnumerateSupportedRules(v, 2);
  // (a,?) (b,?) (?,x) (?,y) (a,x) (b,y)
  EXPECT_EQ(rules.size(), 6u);
}

TEST(EnumerateSupportedRulesTest, SharedValuesDeduplicate) {
  Table t = MakeTable({{"a", "x"}, {"a", "y"}});
  TableView v(t);
  auto rules = EnumerateSupportedRules(v, 2);
  // (a,?) (?,x) (?,y) (a,x) (a,y)
  EXPECT_EQ(rules.size(), 5u);
}

TEST(EnumerateSupportedRulesTest, MaxSizeLimits) {
  Table t = MakeTable({{"a", "x", "q"}});
  TableView v(t);
  EXPECT_EQ(EnumerateSupportedRules(v, 1).size(), 3u);
  EXPECT_EQ(EnumerateSupportedRules(v, 2).size(), 6u);
  EXPECT_EQ(EnumerateSupportedRules(v, 3).size(), 7u);
}

TEST(EnumerateSupportedRulesTest, AllowedColumnsRestrict) {
  Table t = MakeTable({{"a", "x"}, {"b", "y"}});
  TableView v(t);
  auto rules = EnumerateSupportedRules(v, 2, {0});
  EXPECT_EQ(rules.size(), 2u);  // (a,?) and (b,?)
  for (const auto& r : rules) EXPECT_TRUE(r.is_star(1));
}

TEST(EnumerateSupportedRulesTest, EverySupportedRuleHasPositiveMass) {
  SynthSpec spec;
  spec.rows = 100;
  spec.cardinalities = {3, 3, 3};
  spec.seed = 3;
  Table t = GenerateSyntheticTable(spec);
  TableView v(t);
  for (const auto& r : EnumerateSupportedRules(v, 3)) {
    EXPECT_GT(RuleMass(v, r), 0.0);
  }
}

TEST(NaiveBestMarginalTest, HandComputedExample) {
  Table t = MakeTable({{"a", "x"}, {"a", "x"}, {"b", "y"}});
  TableView v(t);
  SizeWeight w;
  std::vector<double> covered(3, 0.0);
  auto best = NaiveBestMarginal(v, w, covered);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->rule, R(t, {"a", "x"}));
  EXPECT_DOUBLE_EQ(best->marginal, 4.0);
}

TEST(NaiveBestMarginalTest, RespectsMaxWeight) {
  Table t = MakeTable({{"a", "x"}, {"a", "x"}, {"b", "y"}});
  TableView v(t);
  SizeWeight w;
  std::vector<double> covered(3, 0.0);
  auto best = NaiveBestMarginal(v, w, covered, /*max_weight=*/1.0);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->rule.size(), 1u);
}

TEST(BruteForceOptimalTest, FindsOptimalPair) {
  // Optimal 2-rule set: (a,x) [4 tuples, weight 2] + (b,?) [3 tuples,
  // weight 1] = 8 + 3 = 11.
  Table t = MakeTable({{"a", "x"}, {"a", "x"}, {"a", "x"}, {"a", "x"},
                       {"b", "y"}, {"b", "z"}, {"b", "w"}});
  TableView v(t);
  SizeWeight w;
  auto best = BruteForceOptimalRuleSet(v, w, 2, 2, 64);
  ASSERT_TRUE(best.ok());
  EXPECT_DOUBLE_EQ(best->total_score, 11.0);
}

TEST(BruteForceOptimalTest, RefusesHugeUniverse) {
  SynthSpec spec;
  spec.rows = 500;
  spec.cardinalities = {10, 10, 10};
  spec.seed = 9;
  Table t = GenerateSyntheticTable(spec);
  TableView v(t);
  SizeWeight w;
  EXPECT_EQ(BruteForceOptimalRuleSet(v, w, 2, 3, 10).status().code(),
            StatusCode::kCapacityExceeded);
}

TEST(TraditionalDrillDownTest, GroupByDescendingCount) {
  Table t = MakeTable({{"a"}, {"b"}, {"a"}, {"c"}, {"a"}, {"b"}});
  TableView v(t);
  auto groups = TraditionalDrillDown(v, 0);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(t.dictionary(0).ValueOf(groups[0].first), "a");
  EXPECT_DOUBLE_EQ(groups[0].second, 3.0);
  EXPECT_DOUBLE_EQ(groups[1].second, 2.0);
  EXPECT_DOUBLE_EQ(groups[2].second, 1.0);
}

TEST(TraditionalDrillDownTest, EquivalentBrsEmulation) {
  // §5.1.2: regular drill-down == BRS with the indicator weight and
  // k = number of distinct values.
  Table t = MakeTable({{"a", "p"}, {"b", "q"}, {"a", "q"}, {"c", "p"},
                       {"a", "p"}, {"b", "p"}});
  TableView v(t);
  auto groups = TraditionalDrillDown(v, 0);

  ColumnIndicatorWeight w(0);
  BrsOptions options;
  options.k = t.dictionary(0).size();
  options.max_weight = 1.0;
  options.max_rule_size = 1;
  auto brs = RunBrs({&v}, w, options);
  ASSERT_TRUE(brs.ok());
  ASSERT_EQ(brs->rules.size(), groups.size());
  // BRS returns one rule per distinct value, counts matching the group-by.
  for (size_t i = 0; i < groups.size(); ++i) {
    bool found = false;
    for (const auto& sr : brs->rules) {
      if (!sr.rule.is_star(0) && sr.rule.value(0) == groups[i].first) {
        EXPECT_DOUBLE_EQ(sr.mass, groups[i].second);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(FrequentRulesTest, FiltersByMinSupport) {
  Table t = MakeTable({{"a", "x"}, {"a", "x"}, {"a", "y"}, {"b", "y"}});
  TableView v(t);
  SizeWeight w;
  auto frequent = FrequentRules(v, 2.0, 2, w);
  // Frequent: (a,?)=3, (?,x)=2, (?,y)=2, (a,x)=2. Not: (b,?)=1, (a,y)=1...
  EXPECT_EQ(frequent.size(), 4u);
  for (const auto& sr : frequent) {
    EXPECT_GE(sr.mass, 2.0);
  }
}

TEST(FrequentRulesTest, MatchesEnumerationFilter) {
  SynthSpec spec;
  spec.rows = 150;
  spec.cardinalities = {3, 4, 2};
  spec.seed = 77;
  Table t = GenerateSyntheticTable(spec);
  TableView v(t);
  SizeWeight w;
  const double min_support = 12;
  auto frequent = FrequentRules(v, min_support, 3, w);

  size_t expected = 0;
  for (const auto& r : EnumerateSupportedRules(v, 3)) {
    if (RuleMass(v, r) >= min_support) ++expected;
  }
  EXPECT_EQ(frequent.size(), expected);
  for (const auto& sr : frequent) {
    EXPECT_DOUBLE_EQ(sr.mass, RuleMass(v, sr.rule));
  }
}

TEST(FrequentRulesTest, DownwardClosureHolds) {
  SynthSpec spec;
  spec.rows = 200;
  spec.cardinalities = {4, 3, 3};
  spec.seed = 78;
  Table t = GenerateSyntheticTable(spec);
  TableView v(t);
  SizeWeight w;
  auto frequent = FrequentRules(v, 10, 3, w);
  // Every sub-rule of a frequent rule is frequent (and in the output).
  for (const auto& sr : frequent) {
    for (size_t c : sr.rule.InstantiatedColumns()) {
      Rule sub = sr.rule;
      sub.clear_value(c);
      if (sub.size() == 0) continue;
      bool found = false;
      for (const auto& other : frequent) found |= (other.rule == sub);
      EXPECT_TRUE(found) << "downward closure violated";
    }
  }
}

}  // namespace
}  // namespace smartdd
