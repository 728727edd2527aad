#include "core/mw_estimator.h"

#include <gtest/gtest.h>

#include "core/brs.h"
#include "data/marketing_gen.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

TEST(MwEstimatorTest, ReturnsDoubleOfObservedMaxWeight) {
  MarketingSpec spec;
  spec.rows = 2000;
  spec.columns = 7;
  Table t = GenerateMarketingTable(spec);
  TableView v(t);
  SizeWeight w;
  auto est = EstimateMaxWeight(v, w, /*k=*/4, /*sample_rows=*/500,
                               /*seed=*/1);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->observed_max_weight, 0.0);
  EXPECT_DOUBLE_EQ(est->mw, 2 * est->observed_max_weight);
  EXPECT_EQ(est->sample_rows, 500u);
}

TEST(MwEstimatorTest, EstimateCoversTheFullRunsMaxWeight) {
  // The point of the 2x headroom: BRS on the full table with the estimated
  // mw must select the same rule set as with an unbounded mw.
  MarketingSpec spec;
  spec.rows = 3000;
  spec.columns = 7;
  Table t = GenerateMarketingTable(spec);
  TableView v(t);
  SizeWeight w;
  auto est = EstimateMaxWeight(v, w, 4, 600, 2);
  ASSERT_TRUE(est.ok());

  BrsOptions with_cap;
  with_cap.k = 4;
  with_cap.max_weight = est->mw;
  auto capped = RunBrs({&v}, w, with_cap);
  ASSERT_TRUE(capped.ok());

  BrsOptions uncapped;
  uncapped.k = 4;
  auto full = RunBrs({&v}, w, uncapped);
  ASSERT_TRUE(full.ok());
  EXPECT_DOUBLE_EQ(capped->total_score, full->total_score);
}

TEST(MwEstimatorTest, SmallerSampleThanViewIsUsed) {
  MarketingSpec spec;
  spec.rows = 300;
  spec.columns = 7;
  Table t = GenerateMarketingTable(spec);
  TableView v(t);
  SizeWeight w;
  auto est = EstimateMaxWeight(v, w, 4, 10000, 3);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->sample_rows, 300u);  // clamped to the view
}

TEST(MwEstimatorTest, DeterministicForSeed) {
  MarketingSpec spec;
  spec.rows = 2000;
  spec.columns = 7;
  Table t = GenerateMarketingTable(spec);
  TableView v(t);
  SizeWeight w;
  auto a = EstimateMaxWeight(v, w, 4, 400, 9);
  auto b = EstimateMaxWeight(v, w, 4, 400, 9);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->mw, b->mw);
}

TEST(MwEstimatorTest, RejectsZeroSampleRows) {
  Table t = ::smartdd::testing::MakeTable({{"a"}});
  TableView v(t);
  SizeWeight w;
  EXPECT_FALSE(EstimateMaxWeight(v, w, 4, 0, 1).ok());
}

}  // namespace
}  // namespace smartdd
