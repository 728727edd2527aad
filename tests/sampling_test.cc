#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/synth.h"
#include "rules/rule_ops.h"
#include "sampling/minss_guidance.h"
#include "sampling/reservoir.h"
#include "sampling/sample.h"
#include "tests/test_util.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;
using ::smartdd::testing::R;

TEST(ReservoirTest, KeepsEverythingBelowCapacity) {
  ReservoirSampler rs(10, 1);
  for (int i = 0; i < 5; ++i) {
    auto p = rs.Offer();
    EXPECT_TRUE(p.accept);
    EXPECT_EQ(p.slot, static_cast<size_t>(i));
  }
  EXPECT_EQ(rs.size(), 5u);
  EXPECT_EQ(rs.seen(), 5u);
}

TEST(ReservoirTest, CapacityNeverExceeded) {
  ReservoirSampler rs(4, 2);
  for (int i = 0; i < 100; ++i) {
    auto p = rs.Offer();
    if (p.accept) {
      EXPECT_LT(p.slot, 4u);
    }
  }
  EXPECT_EQ(rs.size(), 4u);
  EXPECT_EQ(rs.seen(), 100u);
}

TEST(ReservoirTest, DeterministicForSeed) {
  ReservoirSampler a(3, 7), b(3, 7);
  for (int i = 0; i < 50; ++i) {
    auto pa = a.Offer();
    auto pb = b.Offer();
    EXPECT_EQ(pa.accept, pb.accept);
    EXPECT_EQ(pa.slot, pb.slot);
  }
}

TEST(ReservoirTest, ApproximatelyUniformInclusion) {
  // Each of 100 items should be retained with probability 10/100; average
  // inclusion counts over many trials and check uniformity loosely.
  const int n = 100, cap = 10, trials = 2000;
  std::vector<int> kept(n, 0);
  for (int trial = 0; trial < trials; ++trial) {
    ReservoirSampler rs(cap, 1000 + trial);
    std::vector<int> slots(cap, -1);
    for (int i = 0; i < n; ++i) {
      auto p = rs.Offer();
      if (p.accept) slots[p.slot] = i;
    }
    for (int item : slots) {
      if (item >= 0) ++kept[item];
    }
  }
  double expected = trials * static_cast<double>(cap) / n;  // 200
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(kept[i], expected, expected * 0.35)
        << "item " << i << " kept " << kept[i];
  }
}

TEST(SampleTest, ElidesFilterColumns) {
  Table t = MakeTable({{"a", "x", "q"}});
  Rule filter = R(t, {"a", "?", "?"});
  Sample s(filter, t);
  EXPECT_EQ(s.stored_columns(), 2u);  // only columns 1, 2 stored
}

/// Writes table row `row` into slot `slot` of `s` through the column
/// accessors: the stored columns, the measures and the row id.
void FillSlot(const Table& t, uint64_t row, size_t slot, Sample* s) {
  for (size_t k = 0; k < s->star_columns().size(); ++k) {
    s->mutable_codes(k)[slot] = t.code(s->star_columns()[k], row);
  }
  for (size_t m = 0; m < t.num_measures(); ++m) {
    s->mutable_measures(m)[slot] = t.measure(m, row);
  }
  s->mutable_row_ids()[slot] = row;
}

TEST(SampleTest, MaterializeReconstructsFullTuple) {
  Table t = MakeTable({{"a", "x", "q"}, {"a", "y", "r"}});
  Rule filter = R(t, {"a", "?", "?"});
  Sample s(filter, t);
  s.Resize(1);
  FillSlot(t, 1, 0, &s);
  EXPECT_EQ(s.codes(0)[0], t.code(1, 1));
  EXPECT_EQ(s.codes(1)[0], t.code(2, 1));
  Table m = s.Materialize();
  ASSERT_EQ(m.num_rows(), 1u);
  EXPECT_EQ(m.code(0, 0), t.code(0, 1));  // elided: from the filter
  EXPECT_EQ(m.code(1, 0), t.code(1, 1));
  EXPECT_EQ(m.code(2, 0), t.code(2, 1));
  EXPECT_EQ(s.row_id(0), 1u);
}

TEST(SampleTest, MaterializeRebuildsRows) {
  Table t = MakeTable({{"a", "x"}, {"a", "y"}, {"b", "z"}});
  Rule filter = R(t, {"a", "?"});
  Sample s(filter, t);
  s.Resize(2);
  for (uint64_t r : {0ull, 1ull}) FillSlot(t, r, r, &s);
  Table m = s.Materialize();
  ASSERT_EQ(m.num_rows(), 2u);
  EXPECT_EQ(m.ValueAt(0, 0), "a");
  EXPECT_EQ(m.ValueAt(1, 0), "x");
  EXPECT_EQ(m.ValueAt(1, 1), "y");
}

TEST(SampleTest, MeasuresStoredPerRow) {
  Table t({"k"});
  t.AddMeasureColumn("m");
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{4.5}).ok());
  Sample s(Rule::Trivial(1), t);
  s.Resize(1);
  FillSlot(t, 0, 0, &s);
  EXPECT_DOUBLE_EQ(s.measures(0)[0], 4.5);
  Table m = s.Materialize();
  EXPECT_DOUBLE_EQ(m.measure(0, 0), 4.5);
}

TEST(SampleTest, TrivialFilterStoresAllColumns) {
  Table t = MakeTable({{"a", "x"}});
  Sample s(Rule::Trivial(2), t);
  EXPECT_EQ(s.stored_columns(), 2u);
}

TEST(MinSsGuidanceTest, FractionFormula) {
  EXPECT_DOUBLE_EQ(MinSampleSizeForFraction(0.5, 10), 10.0);
  EXPECT_DOUBLE_EQ(MinSampleSizeForFraction(0.1, 10), 90.0);
  EXPECT_DOUBLE_EQ(MinSampleSizeForFraction(1.0, 10), 0.0);
}

TEST(MinSsGuidanceTest, PaperExample) {
  // |C| = 10 columns, smallest column has 5 values, rho = 1:
  // x = 1/50, minSS ~ rho * 49 ~ |C||c|.
  double rec = RecommendMinSampleSize(10, 5, 1.0);
  EXPECT_NEAR(rec, 49.0, 1e-9);
}

TEST(MinSsGuidanceTest, ScalesWithRho) {
  EXPECT_DOUBLE_EQ(RecommendMinSampleSize(10, 5, 2.0),
                   2 * RecommendMinSampleSize(10, 5, 1.0));
}

TEST(ConfidenceTest, WidthShrinksWithSampleSize) {
  double small = CountConfidenceHalfWidth(50, 100, 10.0);
  double large = CountConfidenceHalfWidth(500, 1000, 10.0);
  // Relative width (vs estimate 500 and 5000) shrinks by ~sqrt(10).
  EXPECT_GT(small / 500.0, large / 5000.0);
}

TEST(ConfidenceTest, ZeroForDegenerateInputs) {
  EXPECT_DOUBLE_EQ(CountConfidenceHalfWidth(0, 100, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(CountConfidenceHalfWidth(10, 0, 10.0), 0.0);
}

TEST(ConfidenceTest, FullCoverageHasZeroWidth) {
  // Rule covering every sampled tuple: p = 1, no binomial variance.
  EXPECT_DOUBLE_EQ(CountConfidenceHalfWidth(100, 100, 5.0), 0.0);
}

}  // namespace
}  // namespace smartdd
