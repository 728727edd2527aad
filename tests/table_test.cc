#include "storage/table.h"

#include <gtest/gtest.h>

#include "storage/table_view.h"
#include "tests/test_util.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;

TEST(DictionaryTest, GetOrAddAssignsStableCodes) {
  ValueDictionary d;
  EXPECT_EQ(d.GetOrAdd("a"), 0u);
  EXPECT_EQ(d.GetOrAdd("b"), 1u);
  EXPECT_EQ(d.GetOrAdd("a"), 0u);
  EXPECT_EQ(d.size(), 2u);
}

TEST(DictionaryTest, FindAndValueOf) {
  ValueDictionary d;
  d.GetOrAdd("x");
  d.GetOrAdd("y");
  EXPECT_EQ(d.Find("y").value(), 1u);
  EXPECT_FALSE(d.Find("z").has_value());
  EXPECT_EQ(d.ValueOf(0), "x");
  EXPECT_EQ(d.values(), (std::vector<std::string>{"x", "y"}));
}

TEST(SchemaTest, FindColumn) {
  Schema s({"a", "b", "c"});
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.FindColumn("b").value(), 1u);
  EXPECT_FALSE(s.FindColumn("z").has_value());
  EXPECT_EQ(s.name(2), "c");
}

TEST(TableTest, AppendRowValuesEncodesCells) {
  Table t = MakeTable({{"a", "x"}, {"b", "x"}, {"a", "y"}});
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.ValueAt(0, 0), "a");
  EXPECT_EQ(t.ValueAt(1, 2), "y");
  EXPECT_EQ(t.code(0, 0), t.code(0, 2));  // both "a"
  EXPECT_EQ(t.dictionary(0).size(), 2u);
}

TEST(TableTest, AppendRowValuesRejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_FALSE(t.AppendRowValues({"only-one"}).ok());
}

TEST(TableTest, EmptyLikeSharesDictionaries) {
  Table t = MakeTable({{"a", "x"}});
  Table e = Table::EmptyLike(t);
  EXPECT_EQ(e.num_rows(), 0u);
  EXPECT_EQ(e.dictionary_ptr(0), t.dictionary_ptr(0));
  // Codes encoded via either table agree.
  EXPECT_EQ(e.EncodeValue(0, "a"), t.code(0, 0));
}

TEST(TableTest, AppendRowFromCopiesRows) {
  Table t = MakeTable({{"a", "x"}, {"b", "y"}});
  Table e = Table::EmptyLike(t);
  e.AppendRowFrom(t, 1);
  EXPECT_EQ(e.num_rows(), 1u);
  EXPECT_EQ(e.ValueAt(0, 0), "b");
  EXPECT_EQ(e.ValueAt(1, 0), "y");
}

TEST(TableTest, MeasureColumns) {
  Table t({"k"});
  t.AddMeasureColumn("sales");
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{3.5}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b"}, std::vector<double>{1.5}).ok());
  EXPECT_EQ(t.num_measures(), 1u);
  EXPECT_EQ(t.measure_name(0), "sales");
  EXPECT_DOUBLE_EQ(t.measure(0, 0), 3.5);
  EXPECT_EQ(t.FindMeasure("sales").value(), 0u);
  EXPECT_FALSE(t.FindMeasure("none").ok());
}

TEST(TableTest, GetRowMaterializesCodes) {
  Table t = MakeTable({{"a", "x", "q"}});
  uint32_t codes[3];
  t.GetRow(0, codes);
  EXPECT_EQ(codes[0], t.code(0, 0));
  EXPECT_EQ(codes[1], t.code(1, 0));
  EXPECT_EQ(codes[2], t.code(2, 0));
}

TEST(TableTest, GatherRowsCopiesListedRowsInListOrder) {
  Table t({"k", "v"});
  t.AddMeasureColumn("m");
  ASSERT_TRUE(t.AppendRowValues({"a", "x"}, std::vector<double>{1.5}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b", "y"}, std::vector<double>{2.5}).ok());
  ASSERT_TRUE(t.AppendRowValues({"c", "x"}, std::vector<double>{3.5}).ok());
  ASSERT_TRUE(t.AppendRowValues({"a", "z"}, std::vector<double>{4.5}).ok());

  for (bool frozen : {false, true}) {
    if (frozen) t.Freeze();
    const std::vector<uint32_t> rows = {3, 0, 2, 0};  // not ascending
    Table g = t.GatherRows(rows);
    ASSERT_EQ(g.num_rows(), rows.size());
    EXPECT_EQ(g.is_frozen(), frozen);
    ASSERT_EQ(g.num_measures(), 1u);
    EXPECT_EQ(g.measure_name(0), "m");
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(g.dictionary_ptr(c), t.dictionary_ptr(c));
      EXPECT_EQ(g.column(c).width(), t.column(c).width());
      EXPECT_EQ(g.column(c).bits(), t.column(c).bits());
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t c = 0; c < t.num_columns(); ++c) {
        EXPECT_EQ(g.code(c, i), t.code(c, rows[i]));
      }
      EXPECT_EQ(g.measure(0, i), t.measure(0, rows[i]));
    }

    Table empty = t.GatherRows({});
    EXPECT_EQ(empty.num_rows(), 0u);
    EXPECT_EQ(empty.num_measures(), 1u);
    EXPECT_EQ(empty.is_frozen(), frozen);
    EXPECT_EQ(empty.dictionary_ptr(0), t.dictionary_ptr(0));
  }
}

TEST(TableViewTest, FullViewCoversAllRows) {
  Table t = MakeTable({{"a"}, {"b"}, {"c"}});
  TableView v(t);
  EXPECT_EQ(v.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(v.mass(0), 1.0);
  EXPECT_DOUBLE_EQ(v.total_mass(), 3.0);
}

TEST(TableViewTest, MeasureSelectionChangesMass) {
  Table t({"k"});
  t.AddMeasureColumn("m");
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{2.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b"}, std::vector<double>{5.0}).ok());
  TableView v(t);
  EXPECT_DOUBLE_EQ(v.total_mass(), 2.0);  // count
  v.SelectMeasure(0);
  EXPECT_TRUE(v.has_measure());
  EXPECT_DOUBLE_EQ(v.mass(1), 5.0);
  EXPECT_DOUBLE_EQ(v.total_mass(), 7.0);
  v.ClearMeasure();
  EXPECT_DOUBLE_EQ(v.total_mass(), 2.0);
}

TEST(TableTest, DefaultConstructedIsEmpty) {
  Table t;
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_columns(), 0u);
}

}  // namespace
}  // namespace smartdd
