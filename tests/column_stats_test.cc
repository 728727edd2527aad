#include "storage/column_stats.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;

TEST(ColumnStatsTest, CountsMassPerCode) {
  Table t = MakeTable({{"a"}, {"b"}, {"a"}, {"a"}});
  TableView v(t);
  ColumnStats s = ComputeColumnStats(v, 0);
  EXPECT_EQ(s.dictionary_size, 2u);
  EXPECT_EQ(s.observed_distinct, 2u);
  EXPECT_DOUBLE_EQ(s.mass_per_code[t.code(0, 0)], 3.0);
  EXPECT_DOUBLE_EQ(s.mass_per_code[t.code(0, 1)], 1.0);
  EXPECT_EQ(s.most_frequent_code, t.code(0, 0));
  EXPECT_DOUBLE_EQ(s.most_frequent_mass, 3.0);
  EXPECT_DOUBLE_EQ(s.max_frequency_fraction, 0.75);
}

TEST(ColumnStatsTest, SubsetViewChangesStats) {
  Table t = MakeTable({{"a"}, {"b"}, {"a"}});
  Table sub = t.GatherRows(std::vector<uint32_t>{1});
  TableView v(sub);
  ColumnStats s = ComputeColumnStats(v, 0);
  EXPECT_EQ(s.observed_distinct, 1u);
  EXPECT_EQ(s.dictionary_size, 2u);  // dictionary still has both
  EXPECT_DOUBLE_EQ(s.max_frequency_fraction, 1.0);
}

TEST(ColumnStatsTest, MeasureWeighted) {
  Table t({"k"});
  t.AddMeasureColumn("m");
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{1.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b"}, std::vector<double>{9.0}).ok());
  TableView v(t);
  v.SelectMeasure(0);
  ColumnStats s = ComputeColumnStats(v, 0);
  EXPECT_EQ(s.most_frequent_code, t.code(0, 1));  // "b" carries mass 9
  EXPECT_DOUBLE_EQ(s.max_frequency_fraction, 0.9);
}

TEST(ColumnStatsTest, TableStatsMatchPerColumnStats) {
  Table t = MakeTable({{"a", "x"}, {"b", "x"}, {"a", "y"}});
  TableView v(t);
  auto all = ComputeTableStats(v);
  ASSERT_EQ(all.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    ColumnStats single = ComputeColumnStats(v, c);
    EXPECT_EQ(all[c].most_frequent_code, single.most_frequent_code);
    EXPECT_DOUBLE_EQ(all[c].most_frequent_mass, single.most_frequent_mass);
    EXPECT_EQ(all[c].mass_per_code, single.mass_per_code);
  }
}

TEST(ColumnStatsTest, EmptyViewIsSafe) {
  Table t = MakeTable({{"a"}});
  Table empty = t.GatherRows({});
  TableView v(empty);
  ColumnStats s = ComputeColumnStats(v, 0);
  EXPECT_EQ(s.observed_distinct, 0u);
  EXPECT_DOUBLE_EQ(s.max_frequency_fraction, 0.0);
}

}  // namespace
}  // namespace smartdd
