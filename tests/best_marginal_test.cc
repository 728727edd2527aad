#include "core/best_marginal.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/baseline.h"
#include "data/synth.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;
using ::smartdd::testing::R;

TEST(BestMarginalTest, FindsDominantSingleRule) {
  Table t = MakeTable(
      {{"a", "x"}, {"a", "y"}, {"a", "z"}, {"b", "x"}, {"c", "y"}});
  TableView v(t);
  SizeWeight w;
  std::vector<double> covered(5, 0.0);
  MarginalRuleFinder finder({&v}, w, {}, covered);
  auto best = finder.Find();
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ(best->rule, R(t, {"a", "?"}));
  EXPECT_DOUBLE_EQ(best->mass, 3.0);
  EXPECT_DOUBLE_EQ(best->marginal, 3.0);
}

TEST(BestMarginalTest, PrefersHighWeightWhenCountsJustify) {
  // (a,x) appears 3 times: weight 2 -> marginal 6, beating (a,?) count 4.
  Table t = MakeTable(
      {{"a", "x"}, {"a", "x"}, {"a", "x"}, {"a", "y"}, {"b", "z"}});
  TableView v(t);
  SizeWeight w;
  std::vector<double> covered(5, 0.0);
  MarginalRuleFinder finder({&v}, w, {}, covered);
  auto best = finder.Find();
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->rule, R(t, {"a", "x"}));
  EXPECT_DOUBLE_EQ(best->marginal, 6.0);
}

TEST(BestMarginalTest, CoveredWeightReducesMarginal) {
  Table t = MakeTable(
      {{"a", "x"}, {"a", "x"}, {"a", "y"}, {"b", "z"}, {"b", "z"}});
  TableView v(t);
  SizeWeight w;
  // Pretend (a,?) (weight 1) is already selected: rows 0-2 covered at 1.
  std::vector<double> covered = {1, 1, 1, 0, 0};
  MarginalRuleFinder finder({&v}, w, {}, covered);
  auto best = finder.Find();
  ASSERT_TRUE(best.ok());
  // (b,z): 2 fresh tuples * weight 2 = 4 beats (a,x): 2 * (2-1) = 2.
  EXPECT_EQ(best->rule, R(t, {"b", "z"}));
  EXPECT_DOUBLE_EQ(best->marginal, 4.0);
}

TEST(BestMarginalTest, NotFoundWhenEverythingCoveredAtMaxWeight) {
  Table t = MakeTable({{"a"}, {"b"}});
  TableView v(t);
  SizeWeight w;
  std::vector<double> covered = {1.0, 1.0};  // max weight for 1 column
  MarginalRuleFinder finder({&v}, w, {}, covered);
  auto best = finder.Find();
  EXPECT_EQ(best.status().code(), StatusCode::kNotFound);
}

TEST(BestMarginalTest, NotFoundOnEmptyView) {
  Table t = MakeTable({{"a"}});
  Table empty = t.GatherRows({});
  TableView v(empty);
  SizeWeight w;
  std::vector<double> covered;
  MarginalRuleFinder finder({&v}, w, {}, covered);
  EXPECT_EQ(finder.Find().status().code(), StatusCode::kNotFound);
}

TEST(BestMarginalTest, MaxWeightCapExcludesHeavyRules) {
  // Without a cap the best rule is the full 3-column rule (weight 3).
  Table t = MakeTable({{"a", "x", "q"}, {"a", "x", "q"}, {"b", "y", "r"}});
  TableView v(t);
  SizeWeight w;
  MarginalSearchOptions opts;
  opts.max_weight = 1.0;
  std::vector<double> covered(3, 0.0);
  MarginalRuleFinder finder({&v}, w, opts, covered);
  auto best = finder.Find();
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->rule.size(), 1u);
  EXPECT_DOUBLE_EQ(best->marginal, 2.0);
}

TEST(BestMarginalTest, MaxRuleSizeCapsPasses) {
  Table t = MakeTable({{"a", "x", "q"}, {"a", "x", "q"}});
  TableView v(t);
  SizeWeight w;
  MarginalSearchOptions opts;
  opts.max_rule_size = 2;
  std::vector<double> covered(2, 0.0);
  MarginalRuleFinder finder({&v}, w, opts, covered);
  auto best = finder.Find();
  ASSERT_TRUE(best.ok());
  EXPECT_LE(best->rule.size(), 2u);
  EXPECT_LE(finder.stats().passes, 2u);
}

TEST(BestMarginalTest, AllowedColumnsRestrictSearch) {
  Table t = MakeTable({{"a", "x"}, {"a", "x"}, {"a", "y"}});
  TableView v(t);
  SizeWeight w;
  MarginalSearchOptions opts;
  opts.allowed_columns = {1};
  std::vector<double> covered(3, 0.0);
  MarginalRuleFinder finder({&v}, w, opts, covered);
  auto best = finder.Find();
  ASSERT_TRUE(best.ok());
  EXPECT_TRUE(best->rule.is_star(0));
  EXPECT_EQ(best->rule, R(t, {"?", "x"}));
}

TEST(BestMarginalTest, BaseRuleContributesToWeight) {
  // Base (a, ?) merged into candidates: a candidate instantiating column 1
  // yields a full rule of size 2, so its weight is 2, not 1.
  Table t = MakeTable({{"a", "x"}, {"a", "x"}, {"b", "y"}});
  Table cover = t.GatherRows(std::vector<uint32_t>{0, 1});
  TableView filtered(cover);
  SizeWeight w;
  MarginalSearchOptions opts;
  opts.base_rule = R(t, {"a", "?"});
  opts.allowed_columns = {1};
  std::vector<double> covered(2, 0.0);
  MarginalRuleFinder finder({&filtered}, w, opts, covered);
  auto best = finder.Find();
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->rule, R(t, {"a", "x"}));
  EXPECT_DOUBLE_EQ(best->weight, 2.0);
  EXPECT_DOUBLE_EQ(best->marginal, 4.0);
}

TEST(BestMarginalDeathTest, SearchColumnsMustBeStarsOfTheBase) {
  Table t = MakeTable({{"a", "x"}, {"a", "y"}});
  TableView v(t);
  SizeWeight w;
  MarginalSearchOptions opts;
  opts.base_rule = R(t, {"a", "?"});
  opts.allowed_columns = {0, 1};
  MarginalRuleFinder finder({&v}, w, opts);
  EXPECT_DEATH(finder.Find().ok(), "allowed_columns must be starred");
}

#ifndef NDEBUG
TEST(BestMarginalDeathTest, BaseMustCoverEveryRowInDebugBuilds) {
  // The finder matches a winner's rows on its candidate columns only, so
  // debug builds check that the base covers every row of the views.
  Table t = MakeTable({{"a", "x"}, {"b", "x"}});
  TableView v(t);
  SizeWeight w;
  MarginalSearchOptions opts;
  opts.base_rule = R(t, {"a", "?"});
  opts.allowed_columns = {1};
  EXPECT_DEATH({ MarginalRuleFinder finder({&v}, w, opts); },
               "base_rule must cover every row");
}
#endif

TEST(BestMarginalTest, StatsArePopulated) {
  Table t = MakeTable({{"a", "x"}, {"b", "y"}, {"a", "y"}});
  TableView v(t);
  SizeWeight w;
  std::vector<double> covered(3, 0.0);
  MarginalRuleFinder finder({&v}, w, {}, covered);
  ASSERT_TRUE(finder.Find().ok());
  EXPECT_GE(finder.stats().passes, 1u);
  EXPECT_GT(finder.stats().candidates_generated, 0u);
  EXPECT_GT(finder.stats().tuple_visits, 0u);
}

TEST(BestMarginalTest, SumAggregateUsesMeasureMass) {
  Table t({"k", "p"});
  t.AddMeasureColumn("sales");
  ASSERT_TRUE(t.AppendRowValues({"a", "x"}, std::vector<double>{100.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b", "y"}, std::vector<double>{1.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b", "y"}, std::vector<double>{1.0}).ok());
  TableView v(t);
  v.SelectMeasure(0);
  SizeWeight w;
  std::vector<double> covered(3, 0.0);
  MarginalRuleFinder finder({&v}, w, {}, covered);
  auto best = finder.Find();
  ASSERT_TRUE(best.ok());
  // By count, (b,y) wins; by sales, (a,x) dominates: 100 * 2.
  EXPECT_EQ(best->rule, R(t, {"a", "x"}));
  EXPECT_DOUBLE_EQ(best->marginal, 200.0);
}

// ---------------------------------------------------------------------
// Differential property suite: the pruned a-priori search (kFull) must
// return the same best marginal *value* as both the unpruned search
// (kExhaustive) and an independent naive enumeration, across random
// tables, weights, covered-weight vectors, and mw caps. This is the
// correctness test for the paper's Algorithm 2 pruning bounds.
// ---------------------------------------------------------------------

struct DiffCase {
  uint64_t seed;
  bool use_bits;
  double max_weight;  // 0 = no cap (use weight max)
};

class PruningDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(PruningDifferentialTest, FullMatchesExhaustiveAndNaive) {
  const DiffCase& c = GetParam();
  SynthSpec spec;
  spec.rows = 200;
  spec.cardinalities = {4, 3, 5, 2};
  spec.zipf = {1.0, 0.5, 1.2, 0.2};
  spec.seed = c.seed;
  Table t = GenerateSyntheticTable(spec);
  TableView v(t);

  SizeWeight size_weight;
  BitsWeight bits_weight = BitsWeight::FromTable(t);
  const WeightFunction& w =
      c.use_bits ? static_cast<const WeightFunction&>(bits_weight)
                 : size_weight;
  double mw = c.max_weight > 0 ? c.max_weight
                               : w.MaxPossibleWeight(t.num_columns());

  // Random covered-weight vector simulating a partial solution.
  Rng rng(c.seed * 13 + 1);
  std::vector<double> covered(t.num_rows(), 0.0);
  for (auto& cw : covered) {
    if (rng.Bernoulli(0.4)) {
      cw = static_cast<double>(rng.UniformInt(3));
    }
  }

  MarginalSearchOptions full_opts;
  full_opts.max_weight = mw;
  full_opts.pruning = PruningMode::kFull;
  MarginalRuleFinder full({&v}, w, full_opts, covered);
  auto full_best = full.Find();

  MarginalSearchOptions ex_opts = full_opts;
  ex_opts.pruning = PruningMode::kExhaustive;
  MarginalRuleFinder exhaustive({&v}, w, ex_opts, covered);
  auto ex_best = exhaustive.Find();

  auto naive = NaiveBestMarginal(v, w, covered, mw);

  ASSERT_EQ(full_best.ok(), naive.ok());
  ASSERT_EQ(ex_best.ok(), naive.ok());
  if (naive.ok()) {
    EXPECT_NEAR(full_best->marginal, naive->marginal, 1e-9)
        << "pruned search lost the best rule";
    EXPECT_NEAR(ex_best->marginal, naive->marginal, 1e-9);
    // Pruning must not do *more* counting work than the exhaustive mode.
    EXPECT_LE(full.stats().candidates_counted,
              exhaustive.stats().candidates_counted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTables, PruningDifferentialTest,
    ::testing::Values(DiffCase{1, false, 0}, DiffCase{2, false, 0},
                      DiffCase{3, false, 2}, DiffCase{4, false, 1},
                      DiffCase{5, true, 0}, DiffCase{6, true, 4},
                      DiffCase{7, true, 2}, DiffCase{8, false, 3},
                      DiffCase{9, true, 0}, DiffCase{10, false, 2},
                      DiffCase{11, true, 6}, DiffCase{12, false, 0}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.use_bits ? "_bits" : "_size") + "_mw" +
             std::to_string(static_cast<int>(info.param.max_weight));
    });

// The same differential property under the Sum aggregate over a random
// subset of the rows gathered into its own table — exercises the
// posting-list counting with measure masses.
class SumDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SumDifferentialTest, FullMatchesNaiveWithMeasuresAndSubsets) {
  SynthSpec spec;
  spec.rows = 300;
  spec.cardinalities = {4, 3, 4};
  spec.zipf = {0.9, 0.4, 1.1};
  spec.seed = GetParam();
  spec.with_measure = true;
  Table t = GenerateSyntheticTable(spec);

  // Random subset view with the measure selected.
  Rng rng(GetParam() * 7 + 3);
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    if (rng.Bernoulli(0.6)) rows.push_back(r);
  }
  if (rows.empty()) rows.push_back(0);
  Table subset = t.GatherRows(rows);
  TableView v(subset);
  v.SelectMeasure(0);

  SizeWeight w;
  std::vector<double> covered(v.num_rows(), 0.0);
  for (auto& cw : covered) {
    if (rng.Bernoulli(0.3)) cw = static_cast<double>(rng.UniformInt(3));
  }

  MarginalSearchOptions opts;
  opts.max_weight = 3;
  MarginalRuleFinder finder({&v}, w, opts, covered);
  auto fast = finder.Find();
  auto naive = NaiveBestMarginal(v, w, covered, 3);
  ASSERT_EQ(fast.ok(), naive.ok());
  if (naive.ok()) {
    EXPECT_NEAR(fast->marginal, naive->marginal, 1e-9);
    EXPECT_NEAR(fast->mass, naive->mass, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SumDifferentialTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

}  // namespace
}  // namespace smartdd
