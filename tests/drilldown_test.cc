#include "core/drilldown.h"

#include <gtest/gtest.h>

#include "data/retail_gen.h"
#include "rules/rule_ops.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;
using ::smartdd::testing::R;

class RetailDrillDownTest : public ::testing::Test {
 protected:
  RetailDrillDownTest() : table_(GenerateRetailTable()), view_(table_) {}

  Table table_;
  TableView view_;
  SizeWeight weight_;
};

TEST_F(RetailDrillDownTest, RootDrillDownMatchesPaperTable2) {
  DrillDownRequest req;
  req.base = Rule::Trivial(3);
  req.k = 3;
  req.max_weight = 5;
  auto resp = SmartDrillDown({&view_}, weight_, req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->rules.size(), 3u);
  EXPECT_DOUBLE_EQ(resp->base_mass, 6000);

  bool has_walmart = false;
  for (const auto& sr : resp->rules) {
    if (sr.rule == R(table_, {"Walmart", "?", "?"})) has_walmart = true;
  }
  EXPECT_TRUE(has_walmart);
}

TEST_F(RetailDrillDownTest, WalmartExpansionMatchesPaperTable3) {
  // Clicking the Walmart rule must surface cookies / CA-1 / WA-5 with the
  // paper's counts (200 / 150 / 130).
  DrillDownRequest req;
  req.base = R(table_, {"Walmart", "?", "?"});
  req.k = 3;
  req.max_weight = 5;
  auto resp = SmartDrillDown({&view_}, weight_, req);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->rules.size(), 3u);
  EXPECT_DOUBLE_EQ(resp->base_mass, 1000);

  auto find_mass = [&](const Rule& r) -> double {
    for (const auto& sr : resp->rules) {
      if (sr.rule == r) return sr.mass;
    }
    return -1;
  };
  EXPECT_DOUBLE_EQ(find_mass(R(table_, {"Walmart", "cookies", "?"})), 200);
  EXPECT_DOUBLE_EQ(find_mass(R(table_, {"Walmart", "?", "CA-1"})), 150);
  EXPECT_DOUBLE_EQ(find_mass(R(table_, {"Walmart", "?", "WA-5"})), 130);
}

TEST_F(RetailDrillDownTest, AllResultsAreSuperRulesOfBase) {
  DrillDownRequest req;
  req.base = R(table_, {"Walmart", "?", "?"});
  req.k = 4;
  auto resp = SmartDrillDown({&view_}, weight_, req);
  ASSERT_TRUE(resp.ok());
  for (const auto& sr : resp->rules) {
    EXPECT_TRUE(IsSubRuleOf(req.base, sr.rule))
        << "result is not a super-rule of the clicked rule";
  }
}

TEST_F(RetailDrillDownTest, CountsWithinSliceEqualGlobalCounts) {
  // For a super-rule of the base, Count over T_r equals Count over T.
  DrillDownRequest req;
  req.base = R(table_, {"Walmart", "?", "?"});
  req.k = 3;
  auto resp = SmartDrillDown({&view_}, weight_, req);
  ASSERT_TRUE(resp.ok());
  for (const auto& sr : resp->rules) {
    EXPECT_DOUBLE_EQ(sr.mass, RuleMass(view_, sr.rule));
  }
}

TEST_F(RetailDrillDownTest, WholeViewCoverMatchesGatheredCover) {
  // A view the base covers entirely (e.g. a sample served for the base) is
  // searched as it is; its tree must equal the one gathered from the full
  // table, to the bit.
  const Rule base = R(table_, {"Walmart", "?", "?"});
  std::optional<Table> cover = GatherCover(view_, base);
  ASSERT_TRUE(cover.has_value());
  EXPECT_FALSE(GatherCover(TableView(*cover), base).has_value());
  for (bool sum : {false, true}) {
    const std::optional<size_t> measure =
        sum ? std::optional<size_t>(0) : std::nullopt;
    TableView full(table_, measure);
    TableView whole(*cover, measure);
    DrillDownRequest req;
    req.base = base;
    req.k = 4;
    auto gathered = SmartDrillDown({&full}, weight_, req);
    auto as_is = SmartDrillDown({&whole}, weight_, req);
    ASSERT_TRUE(gathered.ok());
    ASSERT_TRUE(as_is.ok());
    ASSERT_EQ(as_is->rules.size(), gathered->rules.size());
    for (size_t i = 0; i < gathered->rules.size(); ++i) {
      const ScoredRule& a = as_is->rules[i];
      const ScoredRule& b = gathered->rules[i];
      EXPECT_EQ(a.rule, b.rule);
      // EXPECT_EQ on doubles is exact: the same rows add in the same order.
      EXPECT_EQ(a.weight, b.weight);
      EXPECT_EQ(a.mass, b.mass);
      EXPECT_EQ(a.marginal_mass, b.marginal_mass);
      EXPECT_EQ(a.marginal_value, b.marginal_value);
    }
    EXPECT_EQ(as_is->total_score, gathered->total_score);
    EXPECT_EQ(as_is->base_mass, gathered->base_mass);
  }
}

TEST_F(RetailDrillDownTest, StarDrillDownInstantiatesClickedColumn) {
  DrillDownRequest req;
  req.base = Rule::Trivial(3);
  req.star_column = 2;  // Region
  req.k = 4;
  auto resp = SmartDrillDown({&view_}, weight_, req);
  ASSERT_TRUE(resp.ok());
  ASSERT_FALSE(resp->rules.empty());
  for (const auto& sr : resp->rules) {
    EXPECT_FALSE(sr.rule.is_star(2))
        << "star drill-down returned a rule without the clicked column";
  }
}

TEST_F(RetailDrillDownTest, StarDrillDownWithinRule) {
  DrillDownRequest req;
  req.base = R(table_, {"Walmart", "?", "?"});
  req.star_column = 1;  // Product
  req.k = 3;
  auto resp = SmartDrillDown({&view_}, weight_, req);
  ASSERT_TRUE(resp.ok());
  for (const auto& sr : resp->rules) {
    EXPECT_FALSE(sr.rule.is_star(1));
    EXPECT_TRUE(IsSubRuleOf(req.base, sr.rule));
  }
  // cookies is Walmart's biggest product.
  EXPECT_EQ(resp->rules[0].rule, R(table_, {"Walmart", "cookies", "?"}));
}

TEST_F(RetailDrillDownTest, StarOnInstantiatedColumnFails) {
  DrillDownRequest req;
  req.base = R(table_, {"Walmart", "?", "?"});
  req.star_column = 0;
  EXPECT_EQ(SmartDrillDown({&view_}, weight_, req).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RetailDrillDownTest, StarColumnOutOfRangeFails) {
  DrillDownRequest req;
  req.base = Rule::Trivial(3);
  req.star_column = 99;
  EXPECT_EQ(SmartDrillDown({&view_}, weight_, req).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RetailDrillDownTest, WrongWidthBaseFails) {
  DrillDownRequest req;
  req.base = Rule::Trivial(5);
  EXPECT_EQ(SmartDrillDown({&view_}, weight_, req).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DrillDownTest, FullyInstantiatedBaseYieldsNothing) {
  Table t = MakeTable({{"a", "x"}, {"a", "x"}});
  TableView v(t);
  SizeWeight w;
  DrillDownRequest req;
  req.base = R(t, {"a", "x"});
  auto resp = SmartDrillDown({&v}, w, req);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->rules.empty());
  EXPECT_DOUBLE_EQ(resp->base_mass, 2.0);
}

TEST(DrillDownTest, WeightEvaluatedOnMergedRule) {
  // Under SizeMinusOne weighting, a candidate that instantiates one column
  // on top of a size-1 base has merged size 2 -> weight 1 (not 0). If the
  // weight were evaluated on the partial rule, nothing could ever be
  // returned here.
  Table t = MakeTable({{"a", "x"}, {"a", "x"}, {"a", "y"}, {"b", "x"}});
  TableView v(t);
  SizeMinusOneWeight w;
  DrillDownRequest req;
  req.base = R(t, {"a", "?"});
  req.k = 1;
  auto resp = SmartDrillDown({&v}, w, req);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->rules.size(), 1u);
  EXPECT_EQ(resp->rules[0].rule, R(t, {"a", "x"}));
  EXPECT_DOUBLE_EQ(resp->rules[0].weight, 1.0);
}

TEST(DrillDownTest, EmptySliceYieldsNothing) {
  Table t = MakeTable({{"a", "x"}, {"b", "y"}});
  TableView v(t);
  SizeWeight w;
  DrillDownRequest req;
  // Base covering zero tuples ((a, y) matches nothing).
  req.base = R(t, {"a", "y"});
  auto resp = SmartDrillDown({&v}, w, req);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->rules.empty());
  EXPECT_DOUBLE_EQ(resp->base_mass, 0.0);
}

}  // namespace
}  // namespace smartdd
