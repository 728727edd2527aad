#include "explore/session.h"

#include <gtest/gtest.h>

#include "data/retail_gen.h"
#include "data/synth.h"
#include "explore/renderer.h"
#include "rules/rule_ops.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using ::smartdd::testing::R;

class RetailSessionTest : public ::testing::Test {
 protected:
  RetailSessionTest() : table_(GenerateRetailTable()) {}

  SessionOptions DefaultOptions() {
    SessionOptions o;
    o.k = 3;
    o.max_weight = 5;
    return o;
  }

  Table table_;
  SizeWeight weight_;
};

TEST_F(RetailSessionTest, RootShowsTrivialRuleWithTotalCount) {
  auto owned = testing::MakeSession(table_, weight_, DefaultOptions());
  ExplorationSession& session = owned.session;
  const ExplorationNode& root = session.node(session.root());
  EXPECT_TRUE(root.rule.is_trivial());
  EXPECT_DOUBLE_EQ(root.mass, 6000);
  EXPECT_TRUE(root.exact);
  EXPECT_FALSE(session.IsExpanded(session.root()));
}

TEST_F(RetailSessionTest, ExpandAddsChildren) {
  auto owned = testing::MakeSession(table_, weight_, DefaultOptions());
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(children->size(), 3u);
  EXPECT_TRUE(session.IsExpanded(session.root()));
  for (int id : *children) {
    EXPECT_EQ(session.node(id).parent, session.root());
    EXPECT_EQ(session.node(id).depth, 1);
  }
}

TEST_F(RetailSessionTest, TwoLevelDrillDownMatchesPaperTables) {
  // The Tables 1 -> 2 -> 3 walkthrough from the paper's intro.
  auto owned = testing::MakeSession(table_, weight_, DefaultOptions());
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok());

  int walmart = -1;
  for (int id : *children) {
    if (session.node(id).rule == R(table_, {"Walmart", "?", "?"})) {
      walmart = id;
    }
  }
  ASSERT_GE(walmart, 0) << "Walmart rule missing from first drill-down";
  EXPECT_DOUBLE_EQ(session.node(walmart).mass, 1000);

  auto grandchildren = session.Expand(walmart);
  ASSERT_TRUE(grandchildren.ok());
  ASSERT_EQ(grandchildren->size(), 3u);
  bool has_cookies = false;
  for (int id : *grandchildren) {
    EXPECT_EQ(session.node(id).depth, 2);
    if (session.node(id).rule == R(table_, {"Walmart", "cookies", "?"})) {
      has_cookies = true;
      EXPECT_DOUBLE_EQ(session.node(id).mass, 200);
    }
  }
  EXPECT_TRUE(has_cookies);
}

TEST_F(RetailSessionTest, CollapseRemovesSubtree) {
  auto owned = testing::MakeSession(table_, weight_, DefaultOptions());
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok());
  ASSERT_TRUE(session.Expand((*children)[2]).ok());
  size_t displayed_before = session.DisplayOrder().size();
  ASSERT_TRUE(session.Collapse(session.root()).ok());
  EXPECT_EQ(session.DisplayOrder().size(), 1u);
  EXPECT_LT(1u, displayed_before);
  EXPECT_FALSE(session.IsExpanded(session.root()));
}

TEST_F(RetailSessionTest, ReExpandProducesSameRules) {
  auto owned = testing::MakeSession(table_, weight_, DefaultOptions());
  ExplorationSession& session = owned.session;
  auto first = session.Expand(session.root());
  ASSERT_TRUE(first.ok());
  std::vector<Rule> rules_before;
  for (int id : *first) rules_before.push_back(session.node(id).rule);

  auto second = session.Expand(session.root());  // collapses then re-expands
  ASSERT_TRUE(second.ok());
  std::vector<Rule> rules_after;
  for (int id : *second) rules_after.push_back(session.node(id).rule);
  EXPECT_EQ(rules_before, rules_after);
}

TEST_F(RetailSessionTest, ExpandStarForcesColumn) {
  auto owned = testing::MakeSession(table_, weight_, DefaultOptions());
  ExplorationSession& session = owned.session;
  auto children = session.ExpandStar(session.root(), 1);  // Product
  ASSERT_TRUE(children.ok());
  ASSERT_FALSE(children->empty());
  for (int id : *children) {
    EXPECT_FALSE(session.node(id).rule.is_star(1));
  }
}

TEST_F(RetailSessionTest, ExpandInvalidNodeFails) {
  auto owned = testing::MakeSession(table_, weight_, DefaultOptions());
  ExplorationSession& session = owned.session;
  EXPECT_FALSE(session.Expand(99).ok());
  EXPECT_FALSE(session.Expand(-1).ok());
  EXPECT_FALSE(session.Collapse(42).ok());
}

TEST_F(RetailSessionTest, DisplayOrderIsPreOrder) {
  auto owned = testing::MakeSession(table_, weight_, DefaultOptions());
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok());
  ASSERT_TRUE(session.Expand((*children)[0]).ok());
  auto order = session.DisplayOrder();
  // Root first, then first child followed by its children.
  EXPECT_EQ(order[0], session.root());
  EXPECT_EQ(order[1], (*children)[0]);
  EXPECT_EQ(session.node(order[2]).parent, (*children)[0]);
}

TEST_F(RetailSessionTest, RendererShowsHeaderIndentAndCounts) {
  auto owned = testing::MakeSession(table_, weight_, DefaultOptions());
  ExplorationSession& session = owned.session;
  ASSERT_TRUE(session.Expand(session.root()).ok());
  std::string out = RenderSession(session);
  EXPECT_NE(out.find("Store"), std::string::npos);
  EXPECT_NE(out.find("Count"), std::string::npos);
  EXPECT_NE(out.find("Weight"), std::string::npos);
  EXPECT_NE(out.find(". "), std::string::npos);     // depth marker
  EXPECT_NE(out.find("6000"), std::string::npos);   // root count
  EXPECT_NE(out.find("1000"), std::string::npos);   // Walmart count
}

TEST_F(RetailSessionTest, SumAggregateSessionUsesMeasure) {
  // Session over a view... session API takes a table; emulate Sum by
  // checking the rendered label only (direct Sum sessions are exercised in
  // integration_test via TableView-based drill-downs).
  RenderOptions opts;
  opts.mass_label = "Sum(Sales)";
  auto owned = testing::MakeSession(table_, weight_, DefaultOptions());
  ExplorationSession& session = owned.session;
  std::string out = RenderSession(session, opts);
  EXPECT_NE(out.find("Sum(Sales)"), std::string::npos);
}

class SamplingSessionTest : public ::testing::Test {
 protected:
  SamplingSessionTest() {
    SynthSpec spec;
    spec.rows = 30000;
    spec.cardinalities = {6, 5, 4, 3};
    spec.zipf = {1.1, 0.7, 1.3, 0.4};
    spec.seed = 202;
    table_ = GenerateSyntheticTable(spec);
    source_ = std::make_unique<MemoryScanSource>(table_);
  }

  SessionOptions SamplingOptions() {
    SessionOptions o;
    o.k = 3;
    return o;
  }

  EngineOptions SamplingEngineOptions() {
    EngineOptions e;
    e.use_sampling = true;
    e.sampler.memory_capacity = 10000;
    e.sampler.min_sample_size = 3000;
    return e;
  }

  Table table_;
  std::unique_ptr<MemoryScanSource> source_;
  SizeWeight weight_;
};

TEST_F(SamplingSessionTest, ExpansionMarksEstimatedCounts) {
  auto owned = testing::MakeSession(*source_, weight_, SamplingOptions(),
                                    SamplingEngineOptions());
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok()) << children.status().ToString();
  ASSERT_FALSE(children->empty());
  for (int id : *children) {
    const ExplorationNode& node = session.node(id);
    EXPECT_FALSE(node.exact);
    EXPECT_GT(node.ci_half_width, 0.0);
  }
}

TEST_F(SamplingSessionTest, EstimatesWithinConfidenceOfExact) {
  auto owned = testing::MakeSession(*source_, weight_, SamplingOptions(),
                                    SamplingEngineOptions());
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok());
  TableView full(table_);
  for (int id : *children) {
    const ExplorationNode& node = session.node(id);
    double exact = RuleMass(full, node.rule);
    // 3x the 95% CI half-width is a generous, non-flaky envelope.
    EXPECT_NEAR(node.mass, exact, 3 * node.ci_half_width + 1e-9)
        << "estimate " << node.mass << " too far from exact " << exact;
  }
}

TEST_F(SamplingSessionTest, RefreshExactCountsConvergesToTruth) {
  // Count over table_, then Sum over a copy with an integer-valued measure.
  // Whole-number sums are exact in any order of additions, so the sampler's
  // chunked pass must match a row-order RuleMass bit for bit.
  Table with_units = Table::EmptyLike(table_);
  with_units.AddMeasureColumn("units");
  std::vector<uint32_t> codes(table_.num_columns());
  for (uint64_t r = 0; r < table_.num_rows(); ++r) {
    table_.GetRow(r, codes.data());
    const double units = static_cast<double>((r * 7919) % 101);
    with_units.AppendRow(codes, {&units, 1});
  }
  with_units.Freeze();
  MemoryScanSource units_source(with_units);

  for (bool sum : {false, true}) {
    SessionOptions options = SamplingOptions();
    if (sum) options.measure_column = "units";
    auto owned = testing::MakeSession(sum ? units_source : *source_, weight_,
                                      options, SamplingEngineOptions());
    ExplorationSession& session = owned.session;
    auto children = session.Expand(session.root());
    ASSERT_TRUE(children.ok()) << children.status().ToString();
    ASSERT_TRUE(session.RefreshExactCounts().ok());
    TableView full(sum ? with_units : table_);
    if (sum) full.SelectMeasure(0);
    for (int id : session.DisplayOrder()) {
      const ExplorationNode& node = session.node(id);
      EXPECT_TRUE(node.exact);
      EXPECT_EQ(node.mass, RuleMass(full, node.rule))
          << (sum ? "Sum" : "Count");
    }
  }
}

TEST_F(SamplingSessionTest, SampledTopRulesMostlyMatchExactTopRules) {
  // Figure 8(c)'s notion of "incorrect rules": compare sample-based output
  // with the full-table output.
  auto owned_sampled = testing::MakeSession(*source_, weight_,
                                            SamplingOptions(),
                                            SamplingEngineOptions());
  ExplorationSession& sampled = owned_sampled.session;
  auto sampled_children = sampled.Expand(sampled.root());
  ASSERT_TRUE(sampled_children.ok());

  auto owned_exact = testing::MakeSession(table_, weight_, [this]() {
    SessionOptions o;
    o.k = 3;
    return o;
  }());
  ExplorationSession& exact = owned_exact.session;
  auto exact_children = exact.Expand(exact.root());
  ASSERT_TRUE(exact_children.ok());

  size_t matches = 0;
  for (int sid : *sampled_children) {
    for (int eid : *exact_children) {
      if (sampled.node(sid).rule == exact.node(eid).rule) ++matches;
    }
  }
  EXPECT_GE(matches, 2u) << "more than one incorrect rule on a large sample";
}

TEST_F(SamplingSessionTest, BackgroundPrefetchCompletesCleanly) {
  SessionOptions options = SamplingOptions();
  options.prefetch = true;
  auto owned = testing::MakeSession(*source_, weight_, options,
                                    SamplingEngineOptions());
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok());
  EXPECT_TRUE(session.WaitForPrefetch().ok());
  // The next expansion must not need a fresh foreground scan (prefetch
  // covered it). These reads are race-free even though the expansion
  // schedules a follow-up background prefetch: the counters are atomic and
  // prefetch passes are attributed to prefetch_scans(), not
  // scans_performed().
  uint64_t scans_before = session.sampler()->scans_performed();
  uint64_t finds_before = session.sampler()->find_hits();
  uint64_t prefetch_before = session.sampler()->prefetch_scans();
  ASSERT_TRUE(session.Expand((*children)[0]).ok());
  EXPECT_EQ(session.sampler()->scans_performed(), scans_before);
  EXPECT_EQ(session.sampler()->find_hits(), finds_before + 1);
  // The follow-up prefetch legitimately runs one background pass over the
  // newly displayed tree; join it and check it never touched the
  // interactive counters.
  EXPECT_TRUE(session.WaitForPrefetch().ok());
  EXPECT_EQ(session.sampler()->scans_performed(), scans_before);
  EXPECT_EQ(session.sampler()->prefetch_scans(), prefetch_before + 1);
}

TEST_F(SamplingSessionTest, StarExpansionOnSampledSession) {
  auto owned = testing::MakeSession(*source_, weight_, SamplingOptions(),
                                    SamplingEngineOptions());
  ExplorationSession& session = owned.session;
  auto children = session.ExpandStar(session.root(), 2);
  ASSERT_TRUE(children.ok()) << children.status().ToString();
  ASSERT_FALSE(children->empty());
  for (int id : *children) {
    EXPECT_FALSE(session.node(id).rule.is_star(2));
    EXPECT_FALSE(session.node(id).exact);
  }
}

TEST_F(SamplingSessionTest, DeepDrillDownOnRareSliceIsComplete) {
  // Drilling into a rule that covers fewer tuples than minSS: the sample
  // handler returns the complete cover with scale 1, so counts are exact.
  auto owned = testing::MakeSession(*source_, weight_, SamplingOptions(),
                                    SamplingEngineOptions());
  ExplorationSession& session = owned.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok());
  // Find the deepest/narrowest child and keep drilling.
  int narrow = (*children)[0];
  for (int id : *children) {
    if (session.node(id).mass < session.node(narrow).mass) narrow = id;
  }
  auto grand = session.Expand(narrow);
  ASSERT_TRUE(grand.ok()) << grand.status().ToString();
  TableView full(table_);
  for (int id : *grand) {
    const ExplorationNode& node = session.node(id);
    double exact = RuleMass(full, node.rule);
    EXPECT_NEAR(node.mass, exact, std::max(3 * node.ci_half_width, 1e-9));
  }
}

}  // namespace
}  // namespace smartdd
