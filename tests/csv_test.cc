#include "storage/csv.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace smartdd {
namespace {

TEST(CsvTest, ParsesSimpleFile) {
  auto t = ReadCsvString("a,b\nx,y\nz,w\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->schema().names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(t->ValueAt(0, 1), "z");
}

TEST(CsvTest, HandlesQuotedFields) {
  auto t = ReadCsvString("a,b\n\"hello, world\",y\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ValueAt(0, 0), "hello, world");
}

TEST(CsvTest, HandlesEscapedQuotes) {
  auto t = ReadCsvString("a\n\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ValueAt(0, 0), "say \"hi\"");
}

TEST(CsvTest, HandlesNewlineInsideQuotes) {
  auto t = ReadCsvString("a,b\n\"line1\nline2\",y\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->ValueAt(0, 0), "line1\nline2");
}

TEST(CsvTest, HandlesCrLf) {
  auto t = ReadCsvString("a,b\r\nx,y\r\nz,w\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->ValueAt(1, 1), "w");
}

TEST(CsvTest, EmptyFieldsBecomeMissingToken) {
  CsvOptions options;
  options.empty_value = "NA";
  auto t = ReadCsvString("a,b\nx,\n,y\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ValueAt(1, 0), "NA");
  EXPECT_EQ(t->ValueAt(0, 1), "NA");
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvTest, RejectsFieldCountMismatch) {
  auto t = ReadCsvString("a,b\nx\n");
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, MeasureColumnsAreParsedNumeric) {
  CsvOptions options;
  options.measure_columns = {"sales"};
  auto t = ReadCsvString("store,sales\nA,10.5\nB,2\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_columns(), 1u);
  EXPECT_EQ(t->num_measures(), 1u);
  EXPECT_DOUBLE_EQ(t->measure(0, 0), 10.5);
  EXPECT_DOUBLE_EQ(t->measure(0, 1), 2.0);
}

TEST(CsvTest, RejectsNonNumericMeasure) {
  CsvOptions options;
  options.measure_columns = {"sales"};
  EXPECT_FALSE(ReadCsvString("store,sales\nA,abc\n", options).ok());
}

TEST(CsvTest, RejectsNonFiniteMeasure) {
  CsvOptions options;
  options.measure_columns = {"sales"};
  for (const char* cell : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    EXPECT_FALSE(
        ReadCsvString(std::string("store,sales\nA,") + cell + "\n", options)
            .ok())
        << cell;
  }
}

TEST(CsvTest, RejectsUnknownMeasureColumn) {
  CsvOptions options;
  options.measure_columns = {"nonexistent"};
  EXPECT_FALSE(ReadCsvString("a,b\nx,y\n", options).ok());
}

TEST(CsvTest, MaxRowsLimitsLoading) {
  CsvOptions options;
  options.max_rows = 2;
  auto t = ReadCsvString("a\n1\n2\n3\n4\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(CsvTest, NoHeaderGeneratesColumnNames) {
  CsvOptions options;
  options.has_header = false;
  auto t = ReadCsvString("x,y\nz,w\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->schema().names(), (std::vector<std::string>{"col0", "col1"}));
  EXPECT_EQ(t->ValueAt(0, 0), "x");
}

TEST(CsvTest, SkipsBlankLines) {
  auto t = ReadCsvString("a,b\nx,y\n\nz,w\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(CsvTest, WriteReadRoundTrip) {
  Table t({"name", "city"});
  t.AddMeasureColumn("score");
  ASSERT_TRUE(
      t.AppendRowValues({"alice, a", "paris"}, std::vector<double>{1.5}).ok());
  ASSERT_TRUE(
      t.AppendRowValues({"bob \"b\"", "nyc"}, std::vector<double>{2.0}).ok());

  std::string path = ::testing::TempDir() + "/roundtrip.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());

  CsvOptions options;
  options.measure_columns = {"score"};
  auto back = ReadCsvFile(path, options);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->ValueAt(0, 0), "alice, a");
  EXPECT_EQ(back->ValueAt(0, 1), "bob \"b\"");
  EXPECT_DOUBLE_EQ(back->measure(0, 1), 2.0);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/never.csv").status().code(),
            StatusCode::kIOError);
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto t = ReadCsvString("a;b\nx;y\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ValueAt(1, 0), "y");
}

TEST(ParseCsvRecordTest, AdvancesThroughRecords) {
  std::string input = "a,b\nc,d\n";
  size_t pos = 0;
  std::vector<std::string> fields;
  ASSERT_TRUE(ParseCsvRecord(input, &pos, ',', &fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(ParseCsvRecord(input, &pos, ',', &fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"c", "d"}));
  EXPECT_FALSE(ParseCsvRecord(input, &pos, ',', &fields));
}

TEST(ParseCsvRecordTest, LastRecordWithoutNewline) {
  std::string input = "x,y";
  size_t pos = 0;
  std::vector<std::string> fields;
  ASSERT_TRUE(ParseCsvRecord(input, &pos, ',', &fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"x", "y"}));
  EXPECT_FALSE(ParseCsvRecord(input, &pos, ',', &fields));
}

TEST(ParseCsvRecordTest, QuotedDelimiterAndCrLf) {
  std::string input = "\"a,b\",c\r\nnext\n";
  size_t pos = 0;
  std::vector<std::string> fields;
  ASSERT_TRUE(ParseCsvRecord(input, &pos, ',', &fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"a,b", "c"}));
  ASSERT_TRUE(ParseCsvRecord(input, &pos, ',', &fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"next"}));
}

}  // namespace
}  // namespace smartdd
