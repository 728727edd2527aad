// End-to-end scenarios crossing module boundaries: the paper's full
// interaction walkthroughs on generated datasets, sampling-vs-exact
// agreement, and the disk-table path.

#include <cstdio>

#include <gtest/gtest.h>

#include "core/brs.h"
#include "core/drilldown.h"
#include "data/census_gen.h"
#include "data/marketing_gen.h"
#include "data/retail_gen.h"
#include "explore/renderer.h"
#include "explore/session.h"
#include "rules/rule_ops.h"
#include "sampling/sample_handler.h"
#include "storage/csv.h"
#include "storage/disk_table.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using ::smartdd::testing::R;

TEST(IntegrationTest, RetailTables123Walkthrough) {
  // Table 1 (root) -> Table 2 (first drill-down) -> Table 3 (Walmart).
  Table t = GenerateRetailTable();
  SizeWeight w;
  SessionOptions options;
  options.k = 3;
  options.max_weight = 5;
  auto owned = testing::MakeSession(t, w, options);
  ExplorationSession& session = owned.session;

  EXPECT_DOUBLE_EQ(session.node(session.root()).mass, 6000);

  auto level1 = session.Expand(session.root());
  ASSERT_TRUE(level1.ok());
  int walmart = -1;
  for (int id : *level1) {
    if (session.node(id).rule == R(t, {"Walmart", "?", "?"})) walmart = id;
  }
  ASSERT_GE(walmart, 0);

  auto level2 = session.Expand(walmart);
  ASSERT_TRUE(level2.ok());
  std::vector<Rule> expected = {R(t, {"Walmart", "cookies", "?"}),
                                R(t, {"Walmart", "?", "CA-1"}),
                                R(t, {"Walmart", "?", "WA-5"})};
  for (const Rule& e : expected) {
    bool found = false;
    for (int id : *level2) found |= (session.node(id).rule == e);
    EXPECT_TRUE(found) << "Table 3 rule missing";
  }

  // Collapsing Walmart rolls back to the Table 2 display.
  ASSERT_TRUE(session.Collapse(walmart).ok());
  EXPECT_EQ(session.DisplayOrder().size(), 4u);  // root + 3 rules
}

TEST(IntegrationTest, MarketingFirstSummaryShapesLikeFigure1) {
  // On the calibrated Marketing data with Size weighting and k=4, the
  // summary must surface the gender rules plus deeper gender/time rules —
  // the qualitative shape of the paper's Figure 1.
  MarketingSpec spec;
  spec.columns = 7;
  Table t = GenerateMarketingTable(spec);
  TableView v(t);
  SizeWeight w;
  BrsOptions options;
  options.k = 4;
  options.max_weight = 5;
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rules.size(), 4u);

  // All rules must be small (the paper: weights of selected rules are low).
  for (const auto& sr : result->rules) {
    EXPECT_LE(sr.rule.size(), 3u);
    EXPECT_GE(sr.mass, 500);
  }
  // The sex column should feature prominently (its values split the table).
  int rules_with_sex = 0;
  for (const auto& sr : result->rules) {
    if (!sr.rule.is_star(1)) ++rules_with_sex;
  }
  EXPECT_GE(rules_with_sex, 2);
}

TEST(IntegrationTest, BitsWeightingShiftsAwayFromBinaryColumns) {
  // Figure 6 vs Figure 1: under Bits weighting the summary should not be
  // dominated by the binary Sex column.
  MarketingSpec spec;
  spec.columns = 7;
  Table t = GenerateMarketingTable(spec);
  TableView v(t);
  BitsWeight bits = BitsWeight::FromTable(t);
  BrsOptions options;
  options.k = 4;
  options.max_weight = 20;
  auto result = RunBrs({&v}, bits, options);
  ASSERT_TRUE(result.ok());
  int rules_on_sex_only = 0;
  for (const auto& sr : result->rules) {
    if (!sr.rule.is_star(1) && sr.rule.size() == 1) ++rules_on_sex_only;
  }
  EXPECT_EQ(rules_on_sex_only, 0)
      << "Bits weighting still spends rules on the 1-bit Sex column";
}

TEST(IntegrationTest, SizeMinusOneForcesSize2Rules) {
  // Figure 7: with max(0, Size-1) every displayed rule has >= 2 columns.
  MarketingSpec spec;
  spec.columns = 7;
  Table t = GenerateMarketingTable(spec);
  TableView v(t);
  SizeMinusOneWeight w;
  BrsOptions options;
  options.k = 4;
  options.max_weight = 5;
  auto result = RunBrs({&v}, w, options);
  ASSERT_TRUE(result.ok());
  for (const auto& sr : result->rules) {
    EXPECT_GE(sr.rule.size(), 2u);
  }
}

TEST(IntegrationTest, SampleBasedBrsMatchesFullTableBrs) {
  // Figure 8(c)'s metric: number of "incorrect" rules when running on a
  // sample instead of the full table. With minSS = 5000 on Marketing the
  // paper reports ~0 incorrect rules for Size weighting.
  Table t = GenerateMarketingTable({.rows = 9409, .seed = 5, .columns = 7});
  SizeWeight w;

  TableView full(t);
  BrsOptions options;
  options.k = 4;
  options.max_weight = 5;
  auto exact = RunBrs({&full}, w, options);
  ASSERT_TRUE(exact.ok());

  MemoryScanSource source(t);
  SampleHandlerOptions sopts;
  sopts.memory_capacity = 50000;
  sopts.min_sample_size = 5000;
  SampleHandler handler(source, sopts);
  auto sample = handler.GetSampleFor(Rule::Trivial(t.num_columns()));
  ASSERT_TRUE(sample.ok());
  TableView sampled(sample->table);
  auto approx = RunBrs({&sampled}, w, options);
  ASSERT_TRUE(approx.ok());

  size_t incorrect = 0;
  for (const auto& a : approx->rules) {
    bool found = false;
    for (const auto& e : exact->rules) found |= (a.rule == e.rule);
    if (!found) ++incorrect;
  }
  EXPECT_LE(incorrect, 1u);
}

TEST(IntegrationTest, DiskBackedCensusExploration) {
  // The large-table path end to end: generate a census slice on disk,
  // explore it through the SampleHandler, check counts scale correctly.
  CensusSpec spec;
  spec.rows = 40000;
  spec.columns_used = 7;
  std::string path = ::testing::TempDir() + "/census_explore.sddt";
  ASSERT_TRUE(GenerateCensusDiskTable(spec, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  DiskScanSource source(*dt);

  SizeWeight w;
  SessionOptions options;
  options.k = 3;
  EngineOptions engine_options;
  engine_options.use_sampling = true;
  engine_options.sampler.memory_capacity = 20000;
  engine_options.sampler.min_sample_size = 4000;
  auto owned = testing::MakeSession(source, w, options, engine_options);
  ExplorationSession& session = owned.session;

  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok()) << children.status().ToString();
  ASSERT_FALSE(children->empty());
  EXPECT_EQ(source.scan_count(), 1u);  // exactly one Create pass

  // Estimated counts must be within CI of the exact disk counts.
  std::vector<Rule> rules;
  for (int id : *children) rules.push_back(session.node(id).rule);
  std::vector<double> exact(rules.size(), 0.0);
  ASSERT_TRUE(source
                  .Scan([&](uint64_t, const uint32_t* codes, const double*) {
                    for (size_t i = 0; i < rules.size(); ++i) {
                      if (rules[i].Covers(codes)) exact[i] += 1;
                    }
                    return true;
                  })
                  .ok());
  for (size_t i = 0; i < rules.size(); ++i) {
    const ExplorationNode& node = session.node((*children)[i]);
    EXPECT_NEAR(node.mass, exact[i], 3 * node.ci_half_width + 1e-9);
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, SumAggregateDrillDownOnRetailSales) {
  // §6.3: the same drill-down driven by Sum(Sales) instead of Count.
  Table t = GenerateRetailTable();
  TableView v(t);
  v.SelectMeasure(0);
  SizeWeight w;
  DrillDownRequest req;
  req.base = Rule::Trivial(3);
  req.k = 3;
  req.max_weight = 5;
  auto resp = SmartDrillDown({&v}, w, req);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->rules.size(), 3u);
  // Masses are sales totals now, far exceeding tuple counts.
  for (const auto& sr : resp->rules) {
    EXPECT_GT(sr.mass, 3000.0);
    EXPECT_DOUBLE_EQ(sr.mass, RuleMass(v, sr.rule));
  }
}

TEST(IntegrationTest, CsvToDrillDownPipeline) {
  // CSV -> table -> drill-down -> renderer, the quickstart path.
  Table retail = GenerateRetailTable();
  std::string path = ::testing::TempDir() + "/retail.csv";
  ASSERT_TRUE(WriteCsvFile(retail, path).ok());
  CsvOptions copts;
  copts.measure_columns = {"Sales"};
  auto loaded = ReadCsvFile(path, copts);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), retail.num_rows());

  SizeWeight w;
  SessionOptions options;
  options.k = 3;
  auto owned = testing::MakeSession(*loaded, w, options);
  ExplorationSession& session = owned.session;
  ASSERT_TRUE(session.Expand(session.root()).ok());
  std::string rendered = RenderSession(session);
  EXPECT_NE(rendered.find("Walmart"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smartdd
