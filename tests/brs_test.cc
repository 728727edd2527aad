#include "core/brs.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "data/mcp_gen.h"
#include "data/retail_gen.h"
#include "data/synth.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;
using ::smartdd::testing::R;

TEST(BrsTest, ReproducesPaperTable2OnRetailData) {
  // The intro running example: the first smart drill-down should surface
  // exactly the paper's three rules (Table 2).
  Table t = GenerateRetailTable();
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 3;
  options.max_weight = 5;
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rules.size(), 3u);

  // Display order is weight-descending: the two size-2 rules first.
  EXPECT_EQ(result->rules[0].weight, 2);
  EXPECT_EQ(result->rules[1].weight, 2);
  EXPECT_EQ(result->rules[2].weight, 1);

  std::vector<Rule> expected = {R(t, {"?", "comforters", "MA-3"}),
                                R(t, {"Target", "bicycles", "?"}),
                                R(t, {"Walmart", "?", "?"})};
  for (const Rule& e : expected) {
    bool found = false;
    for (const auto& sr : result->rules) found |= (sr.rule == e);
    EXPECT_TRUE(found) << "missing expected rule";
  }
  // Paper counts: 600, 200, 1000.
  for (const auto& sr : result->rules) {
    if (sr.rule == expected[0]) {
      EXPECT_DOUBLE_EQ(sr.mass, 600);
    } else if (sr.rule == expected[1]) {
      EXPECT_DOUBLE_EQ(sr.mass, 200);
    } else if (sr.rule == expected[2]) {
      EXPECT_DOUBLE_EQ(sr.mass, 1000);
    }
  }
}

TEST(BrsTest, StopsEarlyWhenNothingLeft) {
  Table t = MakeTable({{"a"}, {"a"}, {"b"}});
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 10;  // only 2 distinct rules exist
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules.size(), 2u);
}

TEST(BrsTest, ResultSortedByWeightDescending) {
  Table t = GenerateRetailTable();
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 5;
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->rules.size(); ++i) {
    EXPECT_GE(result->rules[i - 1].weight, result->rules[i].weight);
  }
}

TEST(BrsTest, MarginalMassesPartitionCoveredMass) {
  Table t = GenerateRetailTable();
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 4;
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok());
  double total_marginal = 0;
  for (const auto& sr : result->rules) {
    EXPECT_LE(sr.marginal_mass, sr.mass + 1e-9);
    total_marginal += sr.marginal_mass;
  }
  EXPECT_LE(total_marginal, static_cast<double>(t.num_rows()) + 1e-9);
}

TEST(BrsTest, AnytimeCallbackSeesRulesInSelectionOrder) {
  Table t = GenerateRetailTable();
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 4;
  std::vector<double> marginals;
  options.on_rule = [&](const ScoredRule& r, size_t idx) {
    EXPECT_EQ(idx, marginals.size());
    marginals.push_back(r.marginal_value);
    return true;
  };
  ASSERT_TRUE(RunBrs({&v}, w, options).ok());
  ASSERT_EQ(marginals.size(), 4u);
  // Greedy marginal gains are non-increasing (submodularity).
  for (size_t i = 1; i < marginals.size(); ++i) {
    EXPECT_GE(marginals[i - 1] + 1e-9, marginals[i]);
  }
}

TEST(BrsTest, AnytimeCallbackCanStopEarly) {
  Table t = GenerateRetailTable();
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 4;
  options.on_rule = [](const ScoredRule&, size_t idx) { return idx < 1; };
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules.size(), 2u);
}

TEST(BrsTest, RejectsNegativeMeasures) {
  Table t({"k"});
  t.AddMeasureColumn("m");
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{-1.0}).ok());
  TableView v(t);
  v.SelectMeasure(0);
  SizeWeight w;
  EXPECT_EQ(RunBrs({&v}, w, {}).status().code(), StatusCode::kInvalidArgument);
}

TEST(BrsTest, RejectsNonFiniteMeasures) {
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    Table t({"k"});
    t.AddMeasureColumn("m");
    ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{1.0}).ok());
    ASSERT_TRUE(t.AppendRowValues({"b"}, std::vector<double>{bad}).ok());
    TableView v(t);
    v.SelectMeasure(0);
    SizeWeight w;
    EXPECT_EQ(RunBrs({&v}, w, {}).status().code(), StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(BrsTest, SumAggregateRanksByMeasure) {
  Table t({"store"});
  t.AddMeasureColumn("sales");
  // "small" has more tuples; "big" has more sales.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRowValues({"small"}, std::vector<double>{1.0}).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.AppendRowValues({"big"}, std::vector<double>{100.0}).ok());
  }
  SizeWeight w;
  BrsOptions options;
  options.k = 1;

  TableView by_count(t);
  auto count_result = RunBrs({&by_count}, w, options);
  ASSERT_TRUE(count_result.ok());
  EXPECT_EQ(count_result->rules[0].rule, R(t, {"small"}));

  TableView by_sum(t);
  by_sum.SelectMeasure(0);
  auto sum_result = RunBrs({&by_sum}, w, options);
  ASSERT_TRUE(sum_result.ok());
  EXPECT_EQ(sum_result->rules[0].rule, R(t, {"big"}));
  EXPECT_DOUBLE_EQ(sum_result->rules[0].mass, 300.0);
}

// Greedy guarantee: Score(greedy) >= (1 - (1-1/k)^k) * Score(optimal) on
// exhaustively-solvable instances (paper §3.4).
class ApproximationRatioTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApproximationRatioTest, GreedyWithinBoundOfBruteForce) {
  SynthSpec spec;
  spec.rows = 60;
  spec.cardinalities = {3, 3};
  spec.zipf = {0.8, 0.4};
  spec.seed = GetParam();
  Table t = GenerateSyntheticTable(spec);
  TableView v(t);
  SizeWeight w;

  const size_t k = 3;
  BrsOptions options;
  options.k = k;
  auto greedy = RunBrs({&v}, w, options);
  ASSERT_TRUE(greedy.ok());

  auto optimal = BruteForceOptimalRuleSet(v, w, k, /*max_size=*/2,
                                          /*max_universe=*/40);
  ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();

  double bound = 1.0 - std::pow(1.0 - 1.0 / static_cast<double>(k),
                                static_cast<double>(k));
  EXPECT_GE(greedy->total_score + 1e-9, bound * optimal->total_score)
      << "greedy=" << greedy->total_score
      << " optimal=" << optimal->total_score;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximationRatioTest,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48));

// Lemma 2 reduction check: on the MCP table with the indicator weight, the
// greedy BRS score equals classic greedy max-coverage, and brute force
// matches exact max coverage.
class McpReductionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(McpReductionTest, BrsScoreMatchesGreedyCoverage) {
  McpInstance inst = GenerateMcpInstance(/*universe_size=*/40,
                                         /*num_subsets=*/6,
                                         /*density=*/0.3, GetParam());
  Table t = McpToTable(inst);
  TableView v(t);
  McpWeight w = McpWeight::FromTable(t);

  const size_t k = 3;
  BrsOptions options;
  options.k = k;
  options.max_weight = 1.0;
  options.max_rule_size = 1;  // one subset indicator per rule suffices
  auto brs = RunBrs({&v}, w, options);
  ASSERT_TRUE(brs.ok());

  size_t greedy_cov = GreedyMaxCoverage(inst, k);
  EXPECT_DOUBLE_EQ(brs->total_score, static_cast<double>(greedy_cov));

  size_t exact_cov = BruteForceMaxCoverage(inst, k);
  EXPECT_GE(exact_cov, greedy_cov);
  double bound = 1.0 - std::pow(1.0 - 1.0 / 3.0, 3.0);
  EXPECT_GE(brs->total_score + 1e-9,
            bound * static_cast<double>(exact_cov));
}

INSTANTIATE_TEST_SUITE_P(Seeds, McpReductionTest,
                         ::testing::Values(71, 72, 73, 74, 75));

TEST(BrsTest, InfinityMaxWeightFallsBackToWeightCap) {
  // Default options leave max_weight infinite; RunBrs should still
  // terminate and find exact results via MaxPossibleWeight.
  Table t = MakeTable({{"a", "x"}, {"a", "x"}, {"b", "y"}});
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 2;
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules[0].rule, R(t, {"a", "x"}));
}

}  // namespace
}  // namespace smartdd
