// Tests for the §6 extension features: column-interest boosts, the anytime
// time-budget mode, Sum-aggregate sessions (direct and sampled), and the
// MCount display column.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/brs.h"
#include "data/retail_gen.h"
#include "data/synth.h"
#include "explore/engine.h"
#include "explore/renderer.h"
#include "explore/session.h"
#include "rules/rule_ops.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;
using ::smartdd::testing::R;

TEST(ColumnBoostWeightTest, AddsBoostPerInstantiatedColumn) {
  SizeWeight base;
  ColumnBoostWeight boosted(base, {2.0, 0.0, 0.5});
  Rule r(3);
  EXPECT_DOUBLE_EQ(boosted.Weight(r), 0.0);
  r.set_value(0, 1);
  EXPECT_DOUBLE_EQ(boosted.Weight(r), 3.0);  // 1 (size) + 2 (boost)
  r.set_value(1, 1);
  EXPECT_DOUBLE_EQ(boosted.Weight(r), 4.0);  // 2 + 2 + 0
  r.set_value(2, 1);
  EXPECT_DOUBLE_EQ(boosted.Weight(r), 5.5);
  EXPECT_DOUBLE_EQ(boosted.MaxPossibleWeight(3), 5.5);
}

TEST(ColumnBoostWeightTest, StaysMonotonic) {
  SizeWeight base;
  ColumnBoostWeight boosted(base, {1.5, 0.0, 3.0, 0.25});
  Rng rng(55);
  for (int trial = 0; trial < 200; ++trial) {
    Rule sub(4);
    for (size_t c = 0; c < 4; ++c) {
      if (rng.Bernoulli(0.4)) sub.set_value(c, 0);
    }
    Rule super = sub;
    for (size_t c = 0; c < 4; ++c) {
      if (super.is_star(c) && rng.Bernoulli(0.5)) super.set_value(c, 0);
    }
    ASSERT_LE(boosted.Weight(sub), boosted.Weight(super));
  }
}

TEST(ColumnBoostWeightTest, SteersBrsTowardBoostedColumn) {
  // Without boost, column 0 rules dominate; boosting column 2 flips it.
  Table t = MakeTable({{"a", "x", "p"}, {"a", "y", "q"}, {"a", "z", "r"},
                       {"a", "v", "u"}, {"b", "w", "s"}});
  TableView v(t);
  SizeWeight base;
  BrsOptions options;
  options.k = 1;
  auto plain = RunBrs({&v}, base, options);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->rules[0].rule, R(t, {"a", "?", "?"}));

  ColumnBoostWeight boosted(base, {0.0, 0.0, 2.0});
  auto steered = RunBrs({&v}, boosted, options);
  ASSERT_TRUE(steered.ok());
  EXPECT_FALSE(steered->rules[0].rule.is_star(2))
      << "boost failed to attract the rule to column 2";
}

TEST(TimeBudgetTest, UnlimitedByDefault) {
  Table t = GenerateRetailTable();
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 4;
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules.size(), 4u);
}

TEST(TimeBudgetTest, ExpiredDeadlineKeepsOnlyCompletedSteps) {
  Table t = GenerateRetailTable();
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 10;
  options.deadline = Deadline::AfterMillis(0);  // expired before step 1
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->deadline_exceeded);
  EXPECT_TRUE(result->rules.empty());
  EXPECT_EQ(result->total_score, 0);
}

TEST(TimeBudgetTest, GenerousDeadlineReturnsEverything) {
  Table t = GenerateRetailTable();
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 4;
  options.deadline = Deadline::AfterMillis(60000);
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->deadline_exceeded);
  EXPECT_EQ(result->rules.size(), 4u);
}

class SumSessionTest : public ::testing::Test {
 protected:
  SumSessionTest() : table_(GenerateRetailTable()) {}

  Table table_;
  SizeWeight weight_;
};

TEST_F(SumSessionTest, DirectSessionRanksBySales) {
  SessionOptions options;
  options.k = 3;
  options.max_weight = 5;
  options.measure_column = "Sales";
  auto owned = testing::MakeSession(table_, weight_, options);
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok()) << children.status().ToString();

  // Root mass becomes the Sum total after the first expansion.
  TableView v(table_);
  v.SelectMeasure(0);
  EXPECT_DOUBLE_EQ(session.node(session.root()).mass, v.total_mass());

  // Child masses are sales sums, exact in direct mode.
  for (int id : *children) {
    const ExplorationNode& node = session.node(id);
    EXPECT_TRUE(node.exact);
    EXPECT_DOUBLE_EQ(node.mass, RuleMass(v, node.rule));
    EXPECT_GT(node.marginal_mass, 0.0);
    EXPECT_LE(node.marginal_mass, node.mass + 1e-9);
  }
}

TEST_F(SumSessionTest, UnknownMeasureFailsCleanly) {
  SessionOptions options;
  options.measure_column = "NoSuchMeasure";
  auto engine = ExplorationEngine::Create(table_, weight_);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  auto session = (*engine)->NewSession(std::move(options));
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SumSessionTest, SampledSumSessionEstimatesTotals) {
  MemoryScanSource source(table_);
  SessionOptions options;
  options.k = 3;
  options.max_weight = 5;
  options.measure_column = "Sales";
  EngineOptions engine_options;
  engine_options.use_sampling = true;
  engine_options.sampler.memory_capacity = 4000;
  engine_options.sampler.min_sample_size = 2000;
  auto owned = testing::MakeSession(source, weight_, options, engine_options);
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok()) << children.status().ToString();

  TableView v(table_);
  v.SelectMeasure(0);
  for (int id : *children) {
    const ExplorationNode& node = session.node(id);
    double exact = RuleMass(v, node.rule);
    EXPECT_NEAR(node.mass, exact, 0.25 * exact)
        << "sum estimate too far off";
  }
  // Exact refresh brings sums to the truth.
  ASSERT_TRUE(session.RefreshExactCounts().ok());
  for (int id : *children) {
    EXPECT_DOUBLE_EQ(session.node(id).mass, RuleMass(v, session.node(id).rule));
  }
}

TEST_F(SumSessionTest, RendererDerivesSumLabelAndMarginalColumn) {
  SessionOptions options;
  options.k = 3;
  options.max_weight = 5;
  options.measure_column = "Sales";
  auto owned = testing::MakeSession(table_, weight_, options);
  ExplorationSession& session = owned.session;
  ASSERT_TRUE(session.Expand(session.root()).ok());
  RenderOptions ropts;
  ropts.show_marginal = true;
  std::string out = RenderSession(session, ropts);
  EXPECT_NE(out.find("Sum(Sales)"), std::string::npos);
  EXPECT_NE(out.find("MSum(Sales)"), std::string::npos);
}

TEST(MarginalColumnTest, MarginalNeverExceedsMassAndSumsToCover) {
  Table t = GenerateRetailTable();
  SizeWeight w;
  SessionOptions options;
  options.k = 4;
  options.max_weight = 5;
  auto owned = testing::MakeSession(t, w, options);
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok());
  double marginal_total = 0;
  for (int id : *children) {
    const ExplorationNode& node = session.node(id);
    EXPECT_LE(node.marginal_mass, node.mass + 1e-9);
    marginal_total += node.marginal_mass;
  }
  EXPECT_LE(marginal_total, session.node(session.root()).mass + 1e-9);
}

TEST(ExactMassesMeasureTest, SumsOverMeasure) {
  Table t({"k"});
  t.AddMeasureColumn("m");
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{5.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b"}, std::vector<double>{3.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{2.0}).ok());
  MemoryScanSource source(t);
  SampleHandlerOptions options;
  options.memory_capacity = 100;
  options.min_sample_size = 10;
  SampleHandler handler(source, options);
  Rule a(1);
  a.set_value(0, *t.dictionary(0).Find("a"));
  auto counts = handler.ExactMasses({a});
  ASSERT_TRUE(counts.ok());
  EXPECT_DOUBLE_EQ((*counts)[0], 2.0);
  auto sums = handler.ExactMasses({a}, 0);
  ASSERT_TRUE(sums.ok());
  EXPECT_DOUBLE_EQ((*sums)[0], 7.0);
  EXPECT_FALSE(handler.ExactMasses({a}, 5).ok());
}

}  // namespace
}  // namespace smartdd
