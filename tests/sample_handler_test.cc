#include "sampling/sample_handler.h"

#include <gtest/gtest.h>

#include "data/synth.h"
#include "rules/rule_ops.h"
#include "tests/test_util.h"

namespace smartdd {
namespace {

using ::smartdd::testing::R;

class SampleHandlerTest : public ::testing::Test {
 protected:
  SampleHandlerTest() {
    SynthSpec spec;
    spec.rows = 20000;
    spec.cardinalities = {5, 4, 6};
    spec.zipf = {1.0, 0.6, 1.2};
    spec.seed = 101;
    table_ = GenerateSyntheticTable(spec);
    source_ = std::make_unique<MemoryScanSource>(table_);
  }

  SampleHandlerOptions SmallOptions() {
    SampleHandlerOptions o;
    o.memory_capacity = 5000;
    o.min_sample_size = 500;
    return o;
  }

  Table table_;
  std::unique_ptr<MemoryScanSource> source_;
};

TEST_F(SampleHandlerTest, FirstRequestCreatesViaScan) {
  SampleHandler handler(*source_, SmallOptions());
  auto req = handler.GetSampleFor(Rule::Trivial(3));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->mechanism, SampleMechanism::kCreate);
  EXPECT_GE(req->table.num_rows(), 500u);
  EXPECT_EQ(handler.scans_performed(), 1u);
  EXPECT_EQ(handler.creates(), 1u);
}

TEST_F(SampleHandlerTest, RepeatRequestIsFindWithoutScan) {
  SampleHandler handler(*source_, SmallOptions());
  ASSERT_TRUE(handler.GetSampleFor(Rule::Trivial(3)).ok());
  auto again = handler.GetSampleFor(Rule::Trivial(3));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->mechanism, SampleMechanism::kFind);
  EXPECT_EQ(handler.scans_performed(), 1u);  // no second scan
  EXPECT_EQ(handler.find_hits(), 1u);
}

TEST_F(SampleHandlerTest, CombineServesSubRuleRequests) {
  SampleHandlerOptions options = SmallOptions();
  options.memory_capacity = 20000;
  options.min_sample_size = 200;
  options.create_capacity_fraction = 1.0;  // big root sample
  SampleHandler handler(*source_, options);
  ASSERT_TRUE(handler.GetSampleFor(Rule::Trivial(3)).ok());

  // The most frequent value of the zipf column covers a large fraction;
  // the root sample alone should serve it without a new scan.
  Rule rule = R(table_, {"v0", "?", "?"});
  auto req = handler.GetSampleFor(rule);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->mechanism, SampleMechanism::kCombine);
  EXPECT_EQ(handler.scans_performed(), 1u);
  // Every returned row must be covered by the rule.
  for (uint64_t r = 0; r < req->table.num_rows(); ++r) {
    uint32_t codes[3];
    req->table.GetRow(r, codes);
    EXPECT_TRUE(rule.Covers(codes));
  }
}

TEST_F(SampleHandlerTest, ScaledCountsApproximateExactCounts) {
  SampleHandlerOptions options = SmallOptions();
  options.memory_capacity = 8000;
  options.min_sample_size = 2000;
  SampleHandler handler(*source_, options);
  auto req = handler.GetSampleFor(Rule::Trivial(3));
  ASSERT_TRUE(req.ok());

  Rule rule = R(table_, {"v0", "?", "?"});
  TableView sample_view(req->table);
  double estimated = RuleMass(sample_view, rule) * req->scale;
  TableView full(table_);
  double exact = RuleMass(full, rule);
  EXPECT_NEAR(estimated, exact, exact * 0.1)
      << "estimate " << estimated << " vs exact " << exact;
}

TEST_F(SampleHandlerTest, RareRuleComesBackCompleteWithScaleOne) {
  // A rule covering fewer tuples than minSS: Create returns all of its
  // tuples with scale 1 (the sample *is* the cover).
  SampleHandlerOptions options = SmallOptions();
  SampleHandler handler(*source_, options);
  // Find some rare combination: pick the least frequent codes.
  Rule rare = R(table_, {"v4", "v3", "v5"});
  TableView full(table_);
  double exact = RuleMass(full, rare);
  ASSERT_LT(exact, options.min_sample_size);

  auto req = handler.GetSampleFor(rare);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_DOUBLE_EQ(req->scale, 1.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(req->table.num_rows()), exact);
}

TEST_F(SampleHandlerTest, MemoryCapNeverExceeded) {
  SampleHandlerOptions options = SmallOptions();
  options.memory_capacity = 3000;
  options.min_sample_size = 1000;
  SampleHandler handler(*source_, options);
  ASSERT_TRUE(handler.GetSampleFor(Rule::Trivial(3)).ok());
  EXPECT_LE(handler.memory_used(), 3000u);
  ASSERT_TRUE(handler.GetSampleFor(R(table_, {"v0", "?", "?"})).ok());
  EXPECT_LE(handler.memory_used(), 3000u);
  ASSERT_TRUE(handler.GetSampleFor(R(table_, {"?", "v1", "?"})).ok());
  EXPECT_LE(handler.memory_used(), 3000u);
}

TEST_F(SampleHandlerTest, DisplayedTreeDrivesPrefetch) {
  SampleHandlerOptions options = SmallOptions();
  options.memory_capacity = 10000;
  options.min_sample_size = 500;
  SampleHandler handler(*source_, options);
  ASSERT_TRUE(handler.GetSampleFor(Rule::Trivial(3)).ok());

  // Declare a tree with two leaves the user may expand next. The estimated
  // masses are deliberately conservative (below the true covers) so the
  // allocation plans root samples comfortably larger than minSS requires.
  DisplayTree tree;
  DisplayTree::Node root;
  root.rule = Rule::Trivial(3);
  root.estimated_mass = 20000;
  root.children = {1, 2};
  DisplayTree::Node leaf1;
  leaf1.rule = R(table_, {"v0", "?", "?"});
  leaf1.estimated_mass = 2000;
  leaf1.parent = 0;
  DisplayTree::Node leaf2;
  leaf2.rule = R(table_, {"?", "v0", "?"});
  leaf2.estimated_mass = 1800;
  leaf2.parent = 0;
  tree.nodes = {root, leaf1, leaf2};
  handler.SetDisplayedTree(tree);
  ASSERT_TRUE(handler.Prefetch().ok());
  uint64_t scans_after_prefetch = handler.scans_performed();

  // Both leaves should now be servable without further scans.
  auto r1 = handler.GetSampleFor(leaf1.rule);
  auto r2 = handler.GetSampleFor(leaf2.rule);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(handler.scans_performed(), scans_after_prefetch);
  EXPECT_NE(r1->mechanism, SampleMechanism::kCreate);
  EXPECT_NE(r2->mechanism, SampleMechanism::kCreate);
}

TEST_F(SampleHandlerTest, ExactMassesMatchDirectComputation) {
  SampleHandler handler(*source_, SmallOptions());
  std::vector<Rule> rules = {Rule::Trivial(3), R(table_, {"v0", "?", "?"}),
                             R(table_, {"?", "?", "v1"})};
  auto masses = handler.ExactMasses(rules);
  ASSERT_TRUE(masses.ok());
  TableView full(table_);
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_DOUBLE_EQ((*masses)[i], RuleMass(full, rules[i]));
  }
  EXPECT_EQ(handler.scans_performed(), 1u);  // one pass for every rule
}

TEST_F(SampleHandlerTest, CombineResultIsMaterializedForReuse) {
  // Room for the root sample AND the combined union: the union is stored,
  // so the second request for the same rule is a Find hit instead of a
  // fresh Horvitz-Thompson rebuild.
  SampleHandlerOptions options;
  options.memory_capacity = 40000;
  options.min_sample_size = 200;
  options.create_capacity_fraction = 0.5;  // 20000: the whole table
  SampleHandler handler(*source_, options);
  ASSERT_TRUE(handler.GetSampleFor(Rule::Trivial(3)).ok());
  ASSERT_EQ(handler.num_samples(), 1u);

  Rule rule = R(table_, {"v0", "?", "?"});
  auto first = handler.GetSampleFor(rule);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->mechanism, SampleMechanism::kCombine);
  EXPECT_EQ(handler.num_samples(), 2u);  // the union was kept
  uint64_t scans_after = handler.scans_performed();

  auto second = handler.GetSampleFor(rule);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->mechanism, SampleMechanism::kFind);
  EXPECT_EQ(handler.find_hits(), 1u);
  EXPECT_EQ(handler.combine_hits(), 1u);
  EXPECT_EQ(handler.scans_performed(), scans_after);  // no rebuild pass
  // The stored union serves exactly what the combine returned.
  ASSERT_EQ(second->table.num_rows(), first->table.num_rows());
  EXPECT_DOUBLE_EQ(second->scale, first->scale);
}

TEST_F(SampleHandlerTest, DerivedUnionsExcludedFromLaterCombines) {
  // A stored union is a deterministic subset of its source samples: letting
  // it back into a later Combine's Horvitz-Thompson product would inflate
  // the inclusion probability and bias masses low. Two handlers with the
  // same seed, one holding a materialized union and one not, must agree
  // exactly on a deeper combine.
  SampleHandlerOptions options;
  options.memory_capacity = 12000;
  options.min_sample_size = 200;
  options.create_capacity_fraction = 0.25;  // 3000-row root sample, scale>1
  SampleHandler with_union(*source_, options);
  SampleHandler without_union(*source_, options);
  ASSERT_TRUE(with_union.GetSampleFor(Rule::Trivial(3)).ok());
  ASSERT_TRUE(without_union.GetSampleFor(Rule::Trivial(3)).ok());

  Rule p = R(table_, {"v0", "?", "?"});
  Rule q = R(table_, {"v0", "v0", "?"});
  auto mid = with_union.GetSampleFor(p);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  ASSERT_EQ(mid->mechanism, SampleMechanism::kCombine);
  ASSERT_EQ(with_union.num_samples(), 2u);  // the union for p was stored

  auto q_with = with_union.GetSampleFor(q);
  auto q_without = without_union.GetSampleFor(q);
  ASSERT_TRUE(q_with.ok()) << q_with.status().ToString();
  ASSERT_TRUE(q_without.ok()) << q_without.status().ToString();
  ASSERT_EQ(q_with->mechanism, SampleMechanism::kCombine);
  ASSERT_EQ(q_without->mechanism, SampleMechanism::kCombine);
  EXPECT_EQ(q_with->scale, q_without->scale);
  EXPECT_EQ(q_with->table.num_rows(), q_without->table.num_rows());
}

TEST_F(SampleHandlerTest, CombineResultNotStoredWhenOverMemoryCap) {
  // The root sample already fills M: the union must be served but not kept.
  SampleHandlerOptions options;
  options.memory_capacity = 20000;
  options.min_sample_size = 200;
  options.create_capacity_fraction = 1.0;
  SampleHandler handler(*source_, options);
  ASSERT_TRUE(handler.GetSampleFor(Rule::Trivial(3)).ok());

  Rule rule = R(table_, {"v0", "?", "?"});
  auto first = handler.GetSampleFor(rule);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->mechanism, SampleMechanism::kCombine);
  EXPECT_EQ(handler.num_samples(), 1u);
  EXPECT_LE(handler.memory_used(), options.memory_capacity);
  auto second = handler.GetSampleFor(rule);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->mechanism, SampleMechanism::kCombine);
}

TEST_F(SampleHandlerTest, SamplesAreUniformlyDistributed) {
  // The sample of the trivial rule should reflect the skewed marginal of
  // column 0 within ~ a few percent.
  SampleHandlerOptions options = SmallOptions();
  options.min_sample_size = 4000;
  options.memory_capacity = 4000;
  SampleHandler handler(*source_, options);
  auto req = handler.GetSampleFor(Rule::Trivial(3));
  ASSERT_TRUE(req.ok());

  TableView sample_view(req->table);
  TableView full(table_);
  Rule v0 = R(table_, {"v0", "?", "?"});
  double sample_frac =
      RuleMass(sample_view, v0) / static_cast<double>(req->table.num_rows());
  double full_frac =
      RuleMass(full, v0) / static_cast<double>(table_.num_rows());
  EXPECT_NEAR(sample_frac, full_frac, 0.05);
}

}  // namespace
}  // namespace smartdd
