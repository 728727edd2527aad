#include "rules/rule.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "rules/rule_format.h"
#include "rules/rule_ops.h"
#include "storage/table_view.h"
#include "tests/test_util.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;
using ::smartdd::testing::R;

TEST(RuleTest, TrivialRuleIsAllStars) {
  Rule r = Rule::Trivial(3);
  EXPECT_EQ(r.num_columns(), 3u);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.is_trivial());
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(r.is_star(c));
}

TEST(RuleTest, SizeCountsInstantiatedColumns) {
  Rule r(4);
  r.set_value(1, 7);
  r.set_value(3, 0);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.InstantiatedColumns(), (std::vector<size_t>{1, 3}));
  r.clear_value(1);
  EXPECT_EQ(r.size(), 1u);
}

TEST(RuleTest, CoversMatchesNonStarPositions) {
  Rule r(3);
  r.set_value(0, 5);
  uint32_t match[] = {5, 9, 9};
  uint32_t miss[] = {4, 9, 9};
  EXPECT_TRUE(r.Covers(match));
  EXPECT_FALSE(r.Covers(miss));
  EXPECT_TRUE(Rule::Trivial(3).Covers(miss));
}

TEST(RuleTest, EqualityAndHash) {
  Rule a(2), b(2);
  a.set_value(0, 1);
  b.set_value(0, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.set_value(1, 2);
  EXPECT_NE(a, b);
}

TEST(SubRuleTest, PaperExample) {
  // (a, ?) is a sub-rule of (a, b).
  Rule general(2), specific(2);
  general.set_value(0, 0);
  specific.set_value(0, 0);
  specific.set_value(1, 1);
  EXPECT_TRUE(IsSubRuleOf(general, specific));
  EXPECT_FALSE(IsSubRuleOf(specific, general));
  EXPECT_TRUE(IsSuperRuleOf(specific, general));
}

TEST(SubRuleTest, ReflexiveAndTrivialBottom) {
  Rule r(3);
  r.set_value(1, 4);
  EXPECT_TRUE(IsSubRuleOf(r, r));
  EXPECT_TRUE(IsSubRuleOf(Rule::Trivial(3), r));
  EXPECT_FALSE(IsSubRuleOf(r, Rule::Trivial(3)));
}

TEST(SubRuleTest, MismatchedValuesAreUnrelated) {
  Rule a(2), b(2);
  a.set_value(0, 1);
  b.set_value(0, 2);
  EXPECT_FALSE(IsSubRuleOf(a, b));
  EXPECT_FALSE(IsSubRuleOf(b, a));
}

TEST(SubRuleTest, DifferentWidthsNeverRelated) {
  EXPECT_FALSE(IsSubRuleOf(Rule::Trivial(2), Rule::Trivial(3)));
}

// Property: sub-rule relation is transitive, and coverage is contravariant
// (sub-rule covers a superset of tuples).
TEST(SubRulePropertyTest, TransitivityAndCoverageOnRandomRules) {
  Rng rng(77);
  const size_t cols = 4;
  auto random_rule = [&](const Rule& base, double extend_p) {
    Rule r = base;
    for (size_t c = 0; c < cols; ++c) {
      if (r.is_star(c) && rng.Bernoulli(extend_p)) {
        r.set_value(c, static_cast<uint32_t>(rng.UniformInt(3)));
      }
    }
    return r;
  };
  for (int trial = 0; trial < 200; ++trial) {
    Rule a = random_rule(Rule::Trivial(cols), 0.4);
    Rule b = random_rule(a, 0.5);   // super-rule of a
    Rule c = random_rule(b, 0.5);   // super-rule of b
    ASSERT_TRUE(IsSubRuleOf(a, b));
    ASSERT_TRUE(IsSubRuleOf(b, c));
    EXPECT_TRUE(IsSubRuleOf(a, c)) << "transitivity violated";
    // Coverage: any tuple covered by c is covered by b and a.
    uint32_t tuple[cols];
    for (size_t i = 0; i < cols; ++i) {
      tuple[i] = c.is_star(i) ? static_cast<uint32_t>(rng.UniformInt(3))
                              : c.value(i);
    }
    ASSERT_TRUE(c.Covers(tuple));
    EXPECT_TRUE(b.Covers(tuple));
    EXPECT_TRUE(a.Covers(tuple));
  }
}

TEST(MergeTest, MergesDisjointColumns) {
  Rule a(3), b(3);
  a.set_value(0, 1);
  b.set_value(2, 5);
  auto m = MergeRules(a, b);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->value(0), 1u);
  EXPECT_TRUE(m->is_star(1));
  EXPECT_EQ(m->value(2), 5u);
}

TEST(MergeTest, AgreeingOverlapIsFine) {
  Rule a(2), b(2);
  a.set_value(0, 3);
  b.set_value(0, 3);
  b.set_value(1, 1);
  auto m = MergeRules(a, b);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->value(0), 3u);
  EXPECT_EQ(m->value(1), 1u);
}

TEST(MergeTest, ConflictFails) {
  Rule a(2), b(2);
  a.set_value(0, 3);
  b.set_value(0, 4);
  EXPECT_FALSE(MergeRules(a, b).ok());
}

TEST(MergeTest, MergedIsSuperRuleOfBoth) {
  Rule a(3), b(3);
  a.set_value(0, 1);
  b.set_value(1, 2);
  auto m = MergeRules(a, b);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(IsSubRuleOf(a, *m));
  EXPECT_TRUE(IsSubRuleOf(b, *m));
}

TEST(RuleMassTest, CountsCoveredTuples) {
  Table t = MakeTable({{"a", "x"}, {"a", "y"}, {"b", "x"}});
  TableView v(t);
  EXPECT_DOUBLE_EQ(RuleMass(v, R(t, {"a", "?"})), 2.0);
  EXPECT_DOUBLE_EQ(RuleMass(v, R(t, {"a", "y"})), 1.0);
  EXPECT_DOUBLE_EQ(RuleMass(v, R(t, {"?", "?"})), 3.0);
  EXPECT_DOUBLE_EQ(RuleMass(v, R(t, {"b", "y"})), 0.0);
}

TEST(FilterTest, FilterRowsReturnsTableRowIds) {
  Table t = MakeTable({{"a"}, {"b"}, {"a"}});
  TableView v(t);
  EXPECT_EQ(FilterRows(v, R(t, {"a"})), (std::vector<uint32_t>{0, 2}));
}

TEST(FilterTest, GatherCoverCarriesMeasure) {
  Table t({"k"});
  t.AddMeasureColumn("m");
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{2.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b"}, std::vector<double>{3.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{4.0}).ok());
  TableView v(t);
  v.SelectMeasure(0);
  std::optional<Table> cover = GatherCover(v, R(t, {"a"}));
  ASSERT_TRUE(cover.has_value());
  TableView f(*cover, v.measure_index());
  EXPECT_EQ(f.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(f.total_mass(), 6.0);
}

TEST(SelectivityTest, RatioOfSubRuleCoverage) {
  Table t = MakeTable({{"a", "x"}, {"a", "y"}, {"a", "y"}, {"b", "x"}});
  TableView v(t);
  Rule general = R(t, {"a", "?"});
  Rule specific = R(t, {"a", "y"});
  EXPECT_DOUBLE_EQ(SelectivityRatio(v, general, specific), 2.0 / 3.0);
  // Not a sub-rule: ratio 0.
  EXPECT_DOUBLE_EQ(SelectivityRatio(v, specific, general), 0.0);
  // Empty coverage: ratio 0.
  Rule none = R(t, {"b", "y"});
  EXPECT_DOUBLE_EQ(SelectivityRatio(v, none, none), 0.0);
}

TEST(RuleFormatTest, ToStringAndCells) {
  Table t = MakeTable({{"Walmart", "cookies"}});
  Rule r = R(t, {"Walmart", "?"});
  EXPECT_EQ(RuleToString(r, t), "(Walmart, ?)");
  EXPECT_EQ(RuleCells(r, t), (std::vector<std::string>{"Walmart", "?"}));
}

TEST(RuleFormatTest, ParseRejectsUnknownValueAndBadWidth) {
  Table t = MakeTable({{"a", "b"}});
  EXPECT_EQ(ParseRule({"zzz", "?"}, t).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ParseRule({"a"}, t).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RuleFormatTest, ParseAcceptsStarSpellings) {
  Table t = MakeTable({{"a", "b"}});
  auto r1 = ParseRule({"?", "b"}, t);
  auto r2 = ParseRule({"*", "b"}, t);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
}

}  // namespace
}  // namespace smartdd
