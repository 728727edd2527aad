#include "weights/standard_weights.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/mcp_gen.h"
#include "tests/test_util.h"
#include "weights/parametric_weight.h"
#include "weights/star_constraint.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;
using ::smartdd::testing::R;

TEST(SizeWeightTest, CountsInstantiatedColumns) {
  SizeWeight w;
  Rule r(4);
  EXPECT_DOUBLE_EQ(w.Weight(r), 0.0);
  r.set_value(0, 1);
  r.set_value(2, 3);
  EXPECT_DOUBLE_EQ(w.Weight(r), 2.0);
  EXPECT_DOUBLE_EQ(w.MaxPossibleWeight(4), 4.0);
}

TEST(BitsWeightTest, FromTableUsesCeilLog2Cardinality) {
  // Column 0: 2 values -> 1 bit; column 1: 5 values -> 3 bits;
  // column 2: 1 value -> 0 bits.
  Table t = MakeTable({{"a", "v1", "z"},
                       {"b", "v2", "z"},
                       {"a", "v3", "z"},
                       {"a", "v4", "z"},
                       {"a", "v5", "z"}});
  BitsWeight w = BitsWeight::FromTable(t);
  EXPECT_EQ(w.bits_per_column(), (std::vector<double>{1, 3, 0}));
  Rule r(3);
  r.set_value(0, 0);
  EXPECT_DOUBLE_EQ(w.Weight(r), 1.0);
  r.set_value(1, 0);
  EXPECT_DOUBLE_EQ(w.Weight(r), 4.0);
  r.set_value(2, 0);
  EXPECT_DOUBLE_EQ(w.Weight(r), 4.0);  // 0-bit column adds nothing
  EXPECT_DOUBLE_EQ(w.MaxPossibleWeight(3), 4.0);
}

TEST(SizeMinusOneWeightTest, ZeroForSingleColumnRules) {
  SizeMinusOneWeight w;
  Rule r(3);
  EXPECT_DOUBLE_EQ(w.Weight(r), 0.0);
  r.set_value(0, 1);
  EXPECT_DOUBLE_EQ(w.Weight(r), 0.0);  // size 1 -> 0
  r.set_value(1, 1);
  EXPECT_DOUBLE_EQ(w.Weight(r), 1.0);
  r.set_value(2, 1);
  EXPECT_DOUBLE_EQ(w.Weight(r), 2.0);
  EXPECT_DOUBLE_EQ(w.MaxPossibleWeight(3), 2.0);
}

TEST(LinearColumnWeightTest, WeightsPerColumn) {
  LinearColumnWeight w({2.0, 0.0, 1.0});
  Rule r(3);
  r.set_value(0, 0);
  EXPECT_DOUBLE_EQ(w.Weight(r), 2.0);
  r.set_value(1, 0);  // indifferent column adds 0
  EXPECT_DOUBLE_EQ(w.Weight(r), 2.0);
  r.set_value(2, 0);
  EXPECT_DOUBLE_EQ(w.Weight(r), 3.0);
  EXPECT_DOUBLE_EQ(w.MaxPossibleWeight(3), 3.0);
}

TEST(ColumnIndicatorWeightTest, IndicatesOneColumn) {
  ColumnIndicatorWeight w(1);
  Rule r(3);
  EXPECT_DOUBLE_EQ(w.Weight(r), 0.0);
  r.set_value(0, 0);
  EXPECT_DOUBLE_EQ(w.Weight(r), 0.0);
  r.set_value(1, 0);
  EXPECT_DOUBLE_EQ(w.Weight(r), 1.0);
}

TEST(ParametricWeightTest, AlphaOneAllOnesEqualsSize) {
  ParametricWeight p({1, 1, 1, 1}, 1.0);
  SizeWeight size;
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    Rule r(4);
    for (size_t c = 0; c < 4; ++c) {
      if (rng.Bernoulli(0.5)) r.set_value(c, 0);
    }
    EXPECT_DOUBLE_EQ(p.Weight(r), size.Weight(r));
  }
}

TEST(ParametricWeightTest, MatchesBitsWhenWeightsAreLogs) {
  Table t = MakeTable({{"a", "v1"}, {"b", "v2"}, {"a", "v3"},
                       {"a", "v4"}, {"a", "v5"}});
  BitsWeight bits = BitsWeight::FromTable(t);
  ParametricWeight p(bits.bits_per_column(), 1.0);
  Rule r(2);
  r.set_value(1, 2);
  EXPECT_DOUBLE_EQ(p.Weight(r), bits.Weight(r));
}

TEST(ParametricWeightTest, AlphaAmplifiesMultiColumnRules) {
  ParametricWeight p({1, 1, 1}, 2.0);
  Rule one(3), two(3);
  one.set_value(0, 0);
  two.set_value(0, 0);
  two.set_value(1, 0);
  EXPECT_DOUBLE_EQ(p.Weight(one), 1.0);
  EXPECT_DOUBLE_EQ(p.Weight(two), 4.0);  // (1+1)^2
}

TEST(StarConstraintWeightTest, ZeroesRulesWithoutTheColumn) {
  SizeWeight base;
  StarConstraintWeight w(base, 1);
  Rule r(3);
  r.set_value(0, 0);
  EXPECT_DOUBLE_EQ(w.Weight(r), 0.0);  // column 1 still starred
  r.set_value(1, 0);
  EXPECT_DOUBLE_EQ(w.Weight(r), 2.0);  // base weight once instantiated
  EXPECT_EQ(w.constrained_column(), 1u);
}

// ---------------------------------------------------------------------
// Property suite: every shipped weight function must be non-negative and
// monotonic (sub-rule weight <= super-rule weight) — the two contracts the
// paper's algorithms rely on (§2.2) — and bounded by MaxPossibleWeight.
// ---------------------------------------------------------------------

struct WeightCase {
  std::string name;
  std::shared_ptr<const WeightFunction> fn;
};

class WeightContractTest : public ::testing::TestWithParam<WeightCase> {};

TEST_P(WeightContractTest, NonNegativeAndMonotonic) {
  const WeightFunction& w = *GetParam().fn;
  Rng rng(99);
  const size_t cols = 5;
  for (int trial = 0; trial < 300; ++trial) {
    // Random sub-rule and a random super-rule extension of it.
    Rule sub(cols);
    for (size_t c = 0; c < cols; ++c) {
      if (rng.Bernoulli(0.4)) {
        sub.set_value(c, static_cast<uint32_t>(rng.UniformInt(4)));
      }
    }
    Rule super = sub;
    for (size_t c = 0; c < cols; ++c) {
      if (super.is_star(c) && rng.Bernoulli(0.5)) {
        super.set_value(c, static_cast<uint32_t>(rng.UniformInt(4)));
      }
    }
    double ws = w.Weight(sub);
    double wp = w.Weight(super);
    ASSERT_GE(ws, 0.0) << w.name();
    ASSERT_GE(wp, 0.0) << w.name();
    ASSERT_LE(ws, wp) << w.name() << " violates monotonicity";
    // The marginal search weighs only the candidates that survive pruning
    // when its cap mw is at least this bound, so it must be one.
    ASSERT_LE(wp, w.MaxPossibleWeight(cols))
        << w.name() << " exceeds MaxPossibleWeight";
  }
}

/// A base weight for the wrappers below, which keep a pointer to it.
const SizeWeight& SharedSize() {
  static const SizeWeight size;
  return size;
}

INSTANTIATE_TEST_SUITE_P(
    AllWeights, WeightContractTest,
    ::testing::Values(
        WeightCase{"Size", std::make_shared<SizeWeight>()},
        WeightCase{"Bits",
                   std::make_shared<BitsWeight>(
                       std::vector<double>{1, 3, 2, 4, 1})},
        WeightCase{"SizeMinusOne", std::make_shared<SizeMinusOneWeight>()},
        WeightCase{"Linear", std::make_shared<LinearColumnWeight>(
                                 std::vector<double>{2, 0, 1, 3, 0.5})},
        WeightCase{"Indicator", std::make_shared<ColumnIndicatorWeight>(2)},
        WeightCase{"ParametricSquared",
                   std::make_shared<ParametricWeight>(
                       std::vector<double>{1, 2, 1, 0.5, 1}, 2.0)},
        WeightCase{"McpIndicator",
                   std::make_shared<McpWeight>(
                       std::vector<uint32_t>{1, 1, 1, 1, 1})},
        WeightCase{"ColumnBoost",
                   std::make_shared<ColumnBoostWeight>(
                       SharedSize(), std::vector<double>{0, 2, 0.5, 1, 0})},
        WeightCase{"StarConstrained",
                   std::make_shared<StarConstraintWeight>(SharedSize(), 3)}),
    [](const ::testing::TestParamInfo<WeightCase>& info) {
      return info.param.name;
    });

// Star-constrained versions stay monotonic too.
TEST(StarConstraintWeightTest, RemainsMonotonic) {
  SizeWeight base;
  StarConstraintWeight w(base, 2);
  Rng rng(123);
  for (int trial = 0; trial < 300; ++trial) {
    Rule sub(4);
    for (size_t c = 0; c < 4; ++c) {
      if (rng.Bernoulli(0.4)) sub.set_value(c, 0);
    }
    Rule super = sub;
    for (size_t c = 0; c < 4; ++c) {
      if (super.is_star(c) && rng.Bernoulli(0.5)) super.set_value(c, 0);
    }
    ASSERT_LE(w.Weight(sub), w.Weight(super));
  }
}

// IntegerValued() opens the marginal search's exact-count regime, so a
// weight may claim it only when every weight it returns is an integer.
TEST(IntegerValuedTest, EachShippedWeight) {
  EXPECT_TRUE(SizeWeight().IntegerValued());
  EXPECT_TRUE(SizeMinusOneWeight().IntegerValued());
  EXPECT_TRUE(ColumnIndicatorWeight(1).IntegerValued());

  EXPECT_TRUE(BitsWeight({2, 0, 3}).IntegerValued());
  EXPECT_FALSE(BitsWeight({2, 0.5, 3}).IntegerValued());
  const Table table =
      testing::MakeTable({{"a", "x", "p"}, {"b", "x", "q"}, {"c", "x", "r"}});
  EXPECT_TRUE(BitsWeight::FromTable(table).IntegerValued());

  EXPECT_TRUE(LinearColumnWeight({1, 4, 0}).IntegerValued());
  EXPECT_FALSE(LinearColumnWeight({1, 4, 0.25}).IntegerValued());

  SizeWeight size;
  BitsWeight fractional({1.5, 1, 1});
  EXPECT_TRUE(ColumnBoostWeight(size, {0, 2, 1}).IntegerValued());
  EXPECT_FALSE(ColumnBoostWeight(size, {0, 0.5, 1}).IntegerValued());
  EXPECT_FALSE(ColumnBoostWeight(fractional, {0, 2, 1}).IntegerValued());

  // The default is false: alpha = 1 with integer weights would qualify,
  // but the parametric family makes no such claim.
  EXPECT_FALSE(ParametricWeight({1, 1, 1}, 2.0).IntegerValued());
}

TEST(IntegerValuedTest, StarConstraintDelegates) {
  SizeWeight size;
  BitsWeight fractional({1.5, 1, 1});
  EXPECT_TRUE(StarConstraintWeight(size, 1).IntegerValued());
  EXPECT_FALSE(StarConstraintWeight(fractional, 1).IntegerValued());
}

// ---------------------------------------------------------------------
// §6.1 parametric analysis helpers.
// ---------------------------------------------------------------------

TEST(ParametricAnalysisTest, SelectionStatisticPrefersFrequentColumns) {
  // Column 0's top value covers 80%, column 1's covers 10%: KKT says the
  // top rule prefers column 0 (larger, i.e. less negative, ln f / w).
  auto a = AnalyzeParametricWeight({1, 1}, 1.0, {0.8, 0.1});
  EXPECT_GT(a.selection_statistic[0], a.selection_statistic[1]);
}

TEST(ParametricAnalysisTest, ZeroWeightColumnNeverSelected) {
  auto a = AnalyzeParametricWeight({0, 1}, 1.0, {0.9, 0.5});
  EXPECT_TRUE(std::isinf(a.selection_statistic[0]));
  EXPECT_LT(a.selection_statistic[0], 0);
}

TEST(ParametricAnalysisTest, InstantiationFractionScalesWithAlpha) {
  std::vector<double> f = {0.5, 0.5, 0.5, 0.5};
  auto a1 = AnalyzeParametricWeight({1, 1, 1, 1}, 0.5, f);
  auto a2 = AnalyzeParametricWeight({1, 1, 1, 1}, 2.0, f);
  EXPECT_LT(a1.predicted_instantiation_fraction,
            a2.predicted_instantiation_fraction);
  EXPECT_GE(a1.predicted_instantiation_fraction, 0.0);
  EXPECT_LE(a2.predicted_instantiation_fraction, 1.0);
}

TEST(ParametricAnalysisTest, AlphaForFractionRoundTrips) {
  std::vector<double> f = {0.3, 0.6, 0.4};
  double alpha = AlphaForInstantiationFraction(0.5, f);
  auto a = AnalyzeParametricWeight({1, 1, 1}, alpha, f);
  EXPECT_NEAR(a.predicted_instantiation_fraction, 0.5, 1e-9);
}

TEST(ParametricAnalysisTest, PredictedMaxWeightIsNonNegative) {
  auto a = AnalyzeParametricWeight({1, 2, 3}, 1.5, {0.2, 0.4, 0.9});
  EXPECT_GE(a.predicted_max_weight, 0.0);
}

}  // namespace
}  // namespace smartdd
