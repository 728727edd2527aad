#include "storage/disk_table.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "data/synth.h"
#include "explore/engine.h"
#include "explore/session.h"
#include "storage/scan_source.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using ::smartdd::testing::MakeTable;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Table ReadAll(const DiskTable& dt) {
  Table out = dt.MakeEmptyTable();
  Status s = dt.Scan([&](uint64_t, const uint32_t* codes,
                         const double* measures) {
    out.AppendRow(std::span<const uint32_t>(codes, out.num_columns()),
                  std::span<const double>(measures,
                                          measures ? out.num_measures() : 0));
    return true;
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(DiskTableTest, WriteOpenRoundTripPreservesEverything) {
  Table t = MakeTable({{"a", "x"}, {"b", "y"}, {"a", "y"}}, {"k1", "k2"});
  std::string path = TempPath("roundtrip.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());

  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  EXPECT_EQ((*dt)->num_rows(), 3u);
  EXPECT_EQ((*dt)->schema().names(), t.schema().names());
  EXPECT_EQ((*dt)->dictionary(0).values(), t.dictionary(0).values());

  Table back = ReadAll(**dt);
  ASSERT_EQ(back.num_rows(), 3u);
  for (uint64_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(back.ValueAt(c, r), t.ValueAt(c, r));
    }
  }
  std::remove(path.c_str());
}

TEST(DiskTableTest, MeasuresRoundTrip) {
  Table t({"k"});
  t.AddMeasureColumn("m");
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{1.25}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b"}, std::vector<double>{-7.5}).ok());
  std::string path = TempPath("measures.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ((*dt)->num_measures(), 1u);
  EXPECT_EQ((*dt)->measure_names()[0], "m");
  Table back = ReadAll(**dt);
  EXPECT_DOUBLE_EQ(back.measure(0, 0), 1.25);
  EXPECT_DOUBLE_EQ(back.measure(0, 1), -7.5);
  std::remove(path.c_str());
}

TEST(DiskTableTest, NarrowCellWidthForSmallDictionaries) {
  Table t({"small"});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.AppendRowValues({StrFormat("v%d", i)}).ok());
  }
  std::string path = TempPath("narrow.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  // Three values pack at 2 bits, as a frozen in-memory column would.
  EXPECT_EQ((*dt)->column_layout(0).width, PackedWidth::kSub);
  EXPECT_EQ((*dt)->column_layout(0).bits, 2u);
  std::remove(path.c_str());
}

TEST(DiskTableTest, WideCellWidthBeyond256Values) {
  Table t({"wide"});
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(t.AppendRowValues({StrFormat("v%d", i)}).ok());
  }
  std::string path = TempPath("wide.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ((*dt)->column_layout(0).width, PackedWidth::k16);
  Table back = ReadAll(**dt);
  EXPECT_EQ(back.ValueAt(0, 299), "v299");
  std::remove(path.c_str());
}

TEST(DiskTableTest, OpenMissingFileFails) {
  EXPECT_EQ(DiskTable::Open("/nonexistent/x.sddt").status().code(),
            StatusCode::kIOError);
}

TEST(DiskTableTest, OpenRejectsGarbage) {
  std::string path = TempPath("garbage.sddt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("not a disk table at all", 1, 23, f);
  std::fclose(f);
  EXPECT_FALSE(DiskTable::Open(path).ok());
  std::remove(path.c_str());
}

TEST(DiskTableTest, ScanDetectsTruncatedData) {
  Table t = MakeTable({{"a"}, {"b"}, {"c"}});
  std::string path = TempPath("trunc.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  // Chop the last row's byte off.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 1), 0);
  Status s = (*dt)->Scan([](uint64_t, const uint32_t*, const double*) {
    return true;
  });
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(DiskTableTest, OpenRejectsVersionOneFile) {
  // The row-major version 1 layout is not read: its rows would decode as
  // garbage granules.
  std::string path = TempPath("v1.sddt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t header[4] = {0x54444453, 1, 0, 0};  // "SDDT", v1, 0 cols
  const uint64_t num_rows = 0;
  std::fwrite(header, sizeof header, 1, f);
  std::fwrite(&num_rows, sizeof num_rows, 1, f);
  std::fclose(f);
  auto dt = DiskTable::Open(path);
  ASSERT_FALSE(dt.ok());
  EXPECT_EQ(dt.status().code(), StatusCode::kIOError);
  EXPECT_NE(dt.status().message().find("unsupported version 1"),
            std::string::npos)
      << dt.status().ToString();
  std::remove(path.c_str());
}

/// A two-granule table (the second one partial) with one measure.
Table TwoGranuleTable() {
  SynthSpec spec;
  spec.rows = kGranuleRows + 904;
  spec.cardinalities = {5, 300};
  spec.seed = 8;
  spec.with_measure = true;
  return GenerateSyntheticTable(spec);
}

TEST(DiskTableTest, ScanDetectsTruncatedLastGranule) {
  const Table t = TwoGranuleTable();
  std::string path = TempPath("trunc_granule.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 8), 0);  // the last measure
  // The full first granule still reads; the short second one fails.
  uint64_t rows = 0;
  ASSERT_TRUE((*dt)
                  ->ScanRange(0, kGranuleRows,
                              [&](const ScanBlock& block) {
                                rows += block.num_rows;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(rows, kGranuleRows);
  Status s = (*dt)->Scan([](uint64_t, const uint32_t*, const double*) {
    return true;
  });
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.ToString();
  DiskScanSource source(*dt);
  s = source.ScanBlocks([](const ScanBlock&) { return true; },
                        /*num_chunks=*/3, /*parallelism=*/2);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(DiskTableTest, GranuleBlocksMatchTheTable) {
  // Every block is one granule's rows (cut at the range ends), and its
  // packed readers decode to the written table's cells.
  const Table t = TwoGranuleTable();
  std::string path = TempPath("granules.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ((*dt)->column_layout(0).width, PackedWidth::kSub);
  EXPECT_EQ((*dt)->column_layout(0).bits, 4u);
  EXPECT_EQ((*dt)->column_layout(1).width, PackedWidth::k16);
  std::vector<uint64_t> starts;
  uint64_t mismatches = 0;
  ASSERT_TRUE((*dt)
                  ->ScanRange(100, t.num_rows() - 7,
                              [&](const ScanBlock& block) {
                                starts.push_back(block.row_begin);
                                for (size_t i = 0; i < block.num_rows; ++i) {
                                  const uint64_t r = block.row_begin + i;
                                  for (size_t c = 0; c < 2; ++c) {
                                    mismatches += block.columns[c].Get(
                                                      block.offset + i) !=
                                                  t.code(c, r);
                                  }
                                  mismatches += block.measures[0][block.offset +
                                                                  i] !=
                                                t.measure(0, r);
                                }
                                return true;
                              })
                  .ok());
  EXPECT_EQ(starts, (std::vector<uint64_t>{100, kGranuleRows}));
  EXPECT_EQ(mismatches, 0u);
  std::remove(path.c_str());
}

TEST(DiskTableTest, ScanEarlyStop) {
  Table t = MakeTable({{"a"}, {"b"}, {"c"}, {"d"}});
  std::string path = TempPath("early.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  int visited = 0;
  ASSERT_TRUE((*dt)
                  ->Scan([&](uint64_t, const uint32_t*, const double*) {
                    return ++visited < 2;
                  })
                  .ok());
  EXPECT_EQ(visited, 2);
  std::remove(path.c_str());
}

TEST(DiskTableWriterTest, RejectsOutOfDictionaryCodes) {
  Table proto = MakeTable({{"a"}});
  std::string path = TempPath("badcode.sddt");
  auto w = DiskTableWriter::Create(proto, path);
  ASSERT_TRUE(w.ok());
  uint32_t bad_code = 99;
  EXPECT_FALSE((*w)->AppendRow(&bad_code, nullptr).ok());
  ASSERT_TRUE((*w)->Finish().ok());
  std::remove(path.c_str());
}

TEST(DiskTableWriterTest, StreamingWriterPatchesRowCount) {
  Table proto = MakeTable({{"a"}, {"b"}});
  std::string path = TempPath("stream.sddt");
  auto w = DiskTableWriter::Create(proto, path);
  ASSERT_TRUE(w.ok());
  uint32_t code0 = 0;
  uint32_t code1 = 1;
  ASSERT_TRUE((*w)->AppendRow(&code0, nullptr).ok());
  ASSERT_TRUE((*w)->AppendRow(&code1, nullptr).ok());
  ASSERT_TRUE((*w)->AppendRow(&code0, nullptr).ok());
  EXPECT_EQ((*w)->rows_written(), 3u);
  ASSERT_TRUE((*w)->Finish().ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ((*dt)->num_rows(), 3u);
  std::remove(path.c_str());
}

TEST(DiskScanSourceTest, CountsScans) {
  Table t = MakeTable({{"a"}, {"b"}});
  std::string path = TempPath("scans.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  DiskScanSource source(*dt);
  EXPECT_EQ(source.scan_count(), 0u);
  ASSERT_TRUE(source
                  .Scan([](uint64_t, const uint32_t*, const double*) {
                    return true;
                  })
                  .ok());
  EXPECT_EQ(source.scan_count(), 1u);
  EXPECT_EQ(source.num_rows(), 2u);
  std::remove(path.c_str());
}

TEST(DiskScanSourceTest, MakeEmptyTableSharesCodeSpace) {
  Table t = MakeTable({{"a", "x"}, {"b", "y"}});
  std::string path = TempPath("codespace.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok());
  Table empty = (*dt)->MakeEmptyTable();
  // Codes emitted by Scan must be valid in the empty table.
  ASSERT_TRUE((*dt)
                  ->Scan([&](uint64_t r, const uint32_t* codes,
                             const double*) {
                    EXPECT_EQ(empty.dictionary(0).ValueOf(codes[0]),
                              t.ValueAt(0, r));
                    return true;
                  })
                  .ok());
  std::remove(path.c_str());
}

TEST(DiskScanSourceTest, MakeEmptyTableSharesTheFileDictionaries) {
  Table t({"k1", "k2"});
  t.AddMeasureColumn("m");
  for (const auto& [k1, k2] : {std::pair{"a", "x"}, std::pair{"b", "y"},
                               std::pair{"c", "x"}}) {
    ASSERT_TRUE(t.AppendRowValues({k1, k2}, std::vector<double>{1.0}).ok());
  }
  std::string path = TempPath("shared_dicts.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  const Table first = (*dt)->MakeEmptyTable();
  const Table second = (*dt)->MakeEmptyTable();
  EXPECT_EQ(first.schema().names(), t.schema().names());
  EXPECT_EQ(first.num_rows(), 0u);
  ASSERT_EQ(first.num_measures(), 1u);
  EXPECT_EQ(first.measure_name(0), "m");
  for (size_t c = 0; c < t.num_columns(); ++c) {
    // The file's dictionary objects themselves, not rebuilt copies.
    EXPECT_EQ(&first.dictionary(c), &(*dt)->dictionary(c)) << c;
    EXPECT_EQ(&second.dictionary(c), &(*dt)->dictionary(c)) << c;
    ASSERT_EQ(first.dictionary(c).size(), t.dictionary(c).size());
    for (uint32_t code = 0; code < t.dictionary(c).size(); ++code) {
      EXPECT_EQ(first.dictionary(c).ValueOf(code),
                t.dictionary(c).ValueOf(code));
    }
  }
  std::remove(path.c_str());
}

// --- Corrupt row data ----------------------------------------------------

/// Byte offset of the granule holding `row` in `dt`'s file (the granules
/// fill the file's tail), and the row's index inside it.
long GranuleOffset(const DiskTable& dt, const std::string& path, uint64_t row,
                   uint64_t* index, uint64_t* rows_in_granule) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  uint64_t total = 0;
  for (uint64_t g0 = 0; g0 < dt.num_rows(); g0 += kGranuleRows) {
    total += dt.GranuleBytes(std::min(kGranuleRows, dt.num_rows() - g0));
  }
  const uint64_t g = row / kGranuleRows;
  *index = row % kGranuleRows;
  *rows_in_granule = std::min(kGranuleRows, dt.num_rows() - g * kGranuleRows);
  return size - static_cast<long>(total) +
         static_cast<long>(g * dt.GranuleBytes(kGranuleRows));
}

/// Byte offset of section `section` (columns first, then measures) of the
/// granule of `rows` rows.
long SectionOffset(const DiskTable& dt, size_t section, uint64_t rows) {
  long off = 0;
  for (size_t c = 0; c < section && c < dt.schema().num_columns(); ++c) {
    off += static_cast<long>(
        (PackedColumn::PayloadBytes(dt.column_layout(c), rows) + 7) / 8 * 8);
  }
  for (size_t m = dt.schema().num_columns(); m < section; ++m) {
    off += static_cast<long>(rows * sizeof(double));
  }
  return off;
}

/// Stores `code` as row `row`'s cell of column `col`, leaving the other
/// codes sharing its byte as they are.
void PatchCode(const DiskTable& dt, const std::string& path, uint64_t row,
               size_t col, uint32_t code) {
  uint64_t index, rows;
  const long granule = GranuleOffset(dt, path, row, &index, &rows);
  const PackedColumn::Layout layout = dt.column_layout(col);
  ASSERT_NE(layout.width, PackedWidth::kConst);
  const uint64_t bit = index * layout.bits;
  const long at = granule + SectionOffset(dt, col, rows) +
                  static_cast<long>(bit / 8);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  uint8_t bytes[4] = {};
  const size_t len = layout.bits < 8 ? 1 : layout.bits / 8;
  ASSERT_EQ(std::fseek(f, at, SEEK_SET), 0);
  ASSERT_EQ(std::fread(bytes, 1, len, f), len);
  if (layout.bits < 8) {
    const unsigned shift = bit % 8;
    const unsigned field = (1u << layout.bits) - 1;
    bytes[0] = static_cast<uint8_t>((bytes[0] & ~(field << shift)) |
                                    ((code & field) << shift));
  } else {
    std::memcpy(bytes, &code, len);
  }
  ASSERT_EQ(std::fseek(f, at, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes, 1, len, f), len);
  std::fclose(f);
}

/// Overwrites row `row`'s value of measure `m`.
void PatchMeasure(const DiskTable& dt, const std::string& path, uint64_t row,
                  size_t m, double value) {
  uint64_t index, rows;
  const long granule = GranuleOffset(dt, path, row, &index, &rows);
  const long at = granule +
                  SectionOffset(dt, dt.schema().num_columns() + m, rows) +
                  static_cast<long>(index * sizeof(double));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, at, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&value, 1, sizeof value, f), sizeof value);
  std::fclose(f);
}

Status ScanAll(const DiskTable& dt) {
  return dt.Scan([](uint64_t, const uint32_t*, const double*) {
    return true;
  });
}

TEST(DiskTableTest, ScanRejectsOutOfRangeCode) {
  Table t = MakeTable({{"a", "x"}, {"b", "y"}, {"a", "z"}}, {"k1", "k2"});
  std::string path = TempPath("bad_code.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  // k2 holds 3 values at 2 bits, so code 3 fits the width but not the
  // dictionary.
  ASSERT_EQ((*dt)->column_layout(1).bits, 2u);
  PatchCode(**dt, path, 1, 1, 3);
  Status s = ScanAll(**dt);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("row 1"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("column 1"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(DiskTableTest, ScanRejectsOutOfRangeSubByteCodeInLaterGranule) {
  // 9 in a 5-value column stored at 4 bits, in the partial last granule.
  const Table t = TwoGranuleTable();
  std::string path = TempPath("bad_nibble.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  const uint64_t row = kGranuleRows + 501;
  PatchCode(**dt, path, row, 0, 9);
  Status s = ScanAll(**dt);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find(StrFormat("row %llu",
                                       static_cast<unsigned long long>(row))),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("code 9"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("column 0"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST(DiskTableTest, SubByteScreenRejectsEachOutOfRangeCode) {
  // Column 0 holds 2 values at 1 bit, which fill the width: no stored field
  // can be out of range, and the check must never flag it. Column 1 holds
  // 2^bits - 1 values at 2 and 4 bits, so exactly one field value, the
  // dictionary size, is out of range. 901 rows in the partial last granule
  // leave a zero-padded tail in its last payload byte.
  const uint64_t num_rows = kGranuleRows + 901;
  for (uint32_t bits : {2u, 4u}) {
    const uint32_t dict_size = (1u << bits) - 1;
    SynthSpec spec;
    spec.rows = num_rows;
    spec.cardinalities = {2, dict_size};
    spec.seed = 12;
    const Table t = GenerateSyntheticTable(spec);
    std::string path = TempPath("sub_byte_screen.sddt");
    ASSERT_TRUE(DiskTable::Write(t, path).ok());
    auto dt = DiskTable::Open(path);
    ASSERT_TRUE(dt.ok()) << dt.status().ToString();
    ASSERT_EQ((*dt)->column_layout(0).bits, 1u);
    ASSERT_EQ((*dt)->column_layout(1).width, PackedWidth::kSub);
    ASSERT_EQ((*dt)->column_layout(1).bits, bits);
    // The clean file, zero-padded tail included, scans and round-trips.
    ASSERT_TRUE(ScanAll(**dt).ok()) << bits;
    const Table clean = ReadAll(**dt);
    ASSERT_EQ(clean.num_rows(), num_rows);
    // The first and last rows of the full granule, and the last row of the
    // partial one.
    for (uint64_t row : {uint64_t{0}, kGranuleRows - 1, num_rows - 1}) {
      const uint32_t original = t.code(1, row);
      PatchCode(**dt, path, row, 1, dict_size);
      Status s = ScanAll(**dt);
      EXPECT_EQ(s.code(), StatusCode::kIOError) << bits << " " << row;
      EXPECT_NE(s.message().find(StrFormat(
                    "row %llu: code %u out of dictionary range %u in "
                    "column 1",
                    static_cast<unsigned long long>(row), dict_size,
                    dict_size)),
                std::string::npos)
          << s.ToString();
      // The largest valid code passes.
      PatchCode(**dt, path, row, 1, dict_size - 1);
      EXPECT_TRUE(ScanAll(**dt).ok()) << bits << " " << row;
      PatchCode(**dt, path, row, 1, original);
    }
    // A field of the padding past the last row is not a row: even an
    // out-of-range value there is accepted.
    PatchCode(**dt, path, num_rows, 1, dict_size);
    EXPECT_TRUE(ScanAll(**dt).ok()) << bits;
    std::remove(path.c_str());
  }
}

TEST(DiskTableTest, ScanRejectsNonFiniteMeasures) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Table t({"k"});
    t.AddMeasureColumn("m");
    for (double m : {1.5, 2.5, 3.5}) {
      ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{m}).ok());
    }
    std::string path = TempPath("bad_measure.sddt");
    ASSERT_TRUE(DiskTable::Write(t, path).ok());
    auto dt = DiskTable::Open(path);
    ASSERT_TRUE(dt.ok()) << dt.status().ToString();
    PatchMeasure(**dt, path, 2, 0, bad);
    Status s = ScanAll(**dt);
    EXPECT_EQ(s.code(), StatusCode::kIOError) << bad;
    EXPECT_NE(s.message().find("row 2"), std::string::npos) << s.ToString();
    std::remove(path.c_str());
  }
}

TEST(DiskTableTest, SamplingExpandSurfacesCorruptRows) {
  // A sampling engine reaches the file only when an expansion scans it for
  // a sample; the corrupt row must fail that expansion cleanly.
  SynthSpec spec;
  spec.rows = 6000;
  spec.cardinalities = {5, 4, 3};
  spec.seed = 31;
  spec.with_measure = true;
  const Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;
  EngineOptions options;
  options.use_sampling = true;
  options.num_threads = 2;
  options.sampler.memory_capacity = 3000;
  options.sampler.min_sample_size = 500;
  options.sampler.seed = 5;
  const double bad_measure = std::numeric_limits<double>::quiet_NaN();
  for (bool measure : {false, true}) {
    std::string path = TempPath("bad_sampled.sddt");
    ASSERT_TRUE(DiskTable::Write(table, path).ok());
    auto dt = DiskTable::Open(path);
    ASSERT_TRUE(dt.ok()) << dt.status().ToString();
    if (measure) {
      PatchMeasure(**dt, path, 4321, 0, bad_measure);
    } else {
      // Column 0 holds 5 values at 4 bits: 9 fits the width only.
      PatchCode(**dt, path, 4321, 0, 9);
    }
    DiskScanSource source(*dt);
    auto engine = ExplorationEngine::Create(source, weight, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    SessionOptions so;
    so.k = 3;
    auto session = (*engine)->NewSession(so);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto expanded = session->Expand(0);
    ASSERT_FALSE(expanded.ok()) << (measure ? "measure" : "code");
    EXPECT_NE(expanded.status().message().find("row 4321"),
              std::string::npos)
        << expanded.status().ToString();
    std::remove(path.c_str());
  }
}

// --- Chunked passes -------------------------------------------------------

/// A 100k-row disk table, 25 granules, scanned in 24 chunks: most chunk
/// boundaries fall inside a granule.
class ChunkedScanTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 100000;
  static constexpr uint64_t kChunks = 24;

  void SetUp() override {
    FaultRegistry::Default().DisarmAll();
    SynthSpec spec;
    spec.rows = kRows;
    spec.cardinalities = {5, 3};
    spec.seed = 21;
    spec.with_measure = true;
    path_ = TempPath("chunked.sddt");
    ASSERT_TRUE(DiskTable::Write(GenerateSyntheticTable(spec), path_).ok());
    auto dt = DiskTable::Open(path_);
    ASSERT_TRUE(dt.ok()) << dt.status().ToString();
    source_ = std::make_unique<DiskScanSource>(*dt);
  }

  void TearDown() override {
    FaultRegistry::Default().DisarmAll();
    std::remove(path_.c_str());
  }

  static uint64_t ChunkBegin(uint64_t c) { return kRows * c / kChunks; }

  /// Runs a 24-chunk pass recording each chunk's rows, and returns the
  /// number of granule reads it made (a 0 ms latency fault armed on every
  /// read counts them without changing them). `stop_chunk` returns false
  /// from its first block.
  uint64_t ScanRecording(size_t parallelism,
                         std::vector<std::vector<uint64_t>>* rows,
                         uint64_t stop_chunk = kChunks) {
    rows->assign(kChunks, {});
    FaultRegistry::Default().ArmLatency("disk_table.read", 0.0, 0);
    const uint64_t before = FaultRegistry::Default().fired("disk_table.read");
    Status s = source_->ScanBlocks(
        [&](const ScanBlock& block) {
          EXPECT_LT(block.chunk, kChunks);
          for (size_t i = 0; i < block.num_rows; ++i) {
            (*rows)[block.chunk].push_back(block.row_begin + i);
          }
          return block.chunk != stop_chunk;
        },
        kChunks, parallelism);
    const uint64_t reads =
        FaultRegistry::Default().fired("disk_table.read") - before;
    FaultRegistry::Default().DisarmAll();
    EXPECT_TRUE(s.ok()) << s.ToString();
    return reads;
  }

  std::string path_;
  std::unique_ptr<DiskScanSource> source_;
};

TEST_F(ChunkedScanTest, ReadsEachGranuleOncePerGroup) {
  const uint64_t granules = (kRows + kGranuleRows - 1) / kGranuleRows;
  ASSERT_EQ(granules, 25u);
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    std::vector<std::vector<uint64_t>> rows;
    const uint64_t reads = ScanRecording(parallelism, &rows);
    if (parallelism == 1) {
      EXPECT_EQ(reads, granules);
    } else {
      // Four groups: only a granule holding a group boundary is read twice.
      EXPECT_GE(reads, granules);
      EXPECT_LE(reads, granules + 3);
    }
    // Every row exactly once, in ascending order, in its own chunk.
    for (uint64_t c = 0; c < kChunks; ++c) {
      std::vector<uint64_t> want(ChunkBegin(c + 1) - ChunkBegin(c));
      std::iota(want.begin(), want.end(), ChunkBegin(c));
      EXPECT_EQ(rows[c], want) << "parallelism " << parallelism << " chunk "
                               << c;
    }
  }
}

TEST_F(ChunkedScanTest, FalseStopsOnlyItsChunk) {
  // Chunk 2 shares its group with later chunks at both parallelisms.
  constexpr uint64_t kStop = 2;
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    std::vector<std::vector<uint64_t>> rows;
    ScanRecording(parallelism, &rows, kStop);
    // The stopped chunk saw its first block only: its rows up to the end
    // of the granule holding its first row.
    const uint64_t first = ChunkBegin(kStop);
    std::vector<uint64_t> want((first / kGranuleRows + 1) * kGranuleRows -
                               first);
    std::iota(want.begin(), want.end(), first);
    EXPECT_EQ(rows[kStop], want) << "parallelism " << parallelism;
    for (uint64_t c = 0; c < kChunks; ++c) {
      if (c == kStop) continue;
      ASSERT_EQ(rows[c].size(), ChunkBegin(c + 1) - ChunkBegin(c))
          << "parallelism " << parallelism << " chunk " << c;
      EXPECT_EQ(rows[c].front(), ChunkBegin(c));
      EXPECT_EQ(rows[c].back(), ChunkBegin(c + 1) - 1);
    }
  }
}

// --- Fault-injected I/O error paths (common/fault_injection) -------------

class DiskTableFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Default().DisarmAll();
    path_ = TempPath("faults.sddt");
    Table t = MakeTable({{"a"}, {"b"}, {"c"}, {"d"}, {"e"}});
    ASSERT_TRUE(DiskTable::Write(t, path_).ok());
    auto dt = DiskTable::Open(path_);
    ASSERT_TRUE(dt.ok()) << dt.status().ToString();
    dt_ = std::move(*dt);
  }

  void TearDown() override {
    FaultRegistry::Default().DisarmAll();
    std::remove(path_.c_str());
  }

  Status ScanCollecting(std::vector<uint64_t>* rows) {
    return dt_->Scan([&](uint64_t r, const uint32_t*, const double*) {
      if (rows != nullptr) rows->push_back(r);
      return true;
    });
  }

  static uint64_t IoRetriesNow() {
    return MetricsRegistry::Default()
        .GetCounter("smartdd_io_retries_total", "")
        .value();
  }

  std::string path_;
  std::shared_ptr<DiskTable> dt_;
};

TEST_F(DiskTableFaultTest, OpenFailureExhaustsRetries) {
  FaultRegistry::Default().ArmError("disk_table.open",
                                    Status::IOError("injected"), /*times=*/0);
  uint64_t fired_before = FaultRegistry::Default().fired("disk_table.open");
  auto dt = DiskTable::Open(path_);
  EXPECT_EQ(dt.status().code(), StatusCode::kIOError);
  // Initial attempt + every retry hit the fault point.
  EXPECT_GE(FaultRegistry::Default().fired("disk_table.open") - fired_before,
            4u);
}

TEST_F(DiskTableFaultTest, OpenRetryThenSucceed) {
  FaultRegistry::Default().ArmError("disk_table.open",
                                    Status::IOError("injected"), /*times=*/1);
  uint64_t retries_before = IoRetriesNow();
  auto dt = DiskTable::Open(path_);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  EXPECT_EQ((*dt)->num_rows(), 5u);
  EXPECT_GE(IoRetriesNow() - retries_before, 1u);
}

TEST_F(DiskTableFaultTest, ScanOpenFailureSurfacesAfterRetries) {
  FaultRegistry::Default().ArmError("disk_table.scan_open",
                                    Status::IOError("injected"), /*times=*/0);
  std::vector<uint64_t> rows;
  Status s = ScanCollecting(&rows);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_TRUE(rows.empty());
}

TEST_F(DiskTableFaultTest, TransientReadErrorRetriesThenSucceeds) {
  FaultRegistry::Default().ArmError("disk_table.read",
                                    Status::IOError("injected"), /*times=*/1);
  uint64_t retries_before = IoRetriesNow();
  std::vector<uint64_t> rows;
  ASSERT_TRUE(ScanCollecting(&rows).ok());
  // The retry re-seeks the block: every row exactly once, in order.
  EXPECT_EQ(rows, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_GE(IoRetriesNow() - retries_before, 1u);
}

TEST_F(DiskTableFaultTest, ShortReadRetriesThenSucceeds) {
  FaultRegistry::Default().ArmShortRead("disk_table.read", /*times=*/1);
  std::vector<uint64_t> rows;
  ASSERT_TRUE(ScanCollecting(&rows).ok());
  EXPECT_EQ(rows, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST_F(DiskTableFaultTest, PersistentShortReadExhaustsRetries) {
  FaultRegistry::Default().ArmShortRead("disk_table.read", /*times=*/0);
  std::vector<uint64_t> rows;
  Status s = ScanCollecting(&rows);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.ToString();
}

TEST(MemoryScanSourceTest, ScansAllRowsWithMeasures) {
  Table t({"k"});
  t.AddMeasureColumn("m");
  ASSERT_TRUE(t.AppendRowValues({"a"}, std::vector<double>{2.0}).ok());
  ASSERT_TRUE(t.AppendRowValues({"b"}, std::vector<double>{3.0}).ok());
  MemoryScanSource source(t);
  double total = 0;
  ASSERT_TRUE(source
                  .Scan([&](uint64_t, const uint32_t*, const double* m) {
                    total += m[0];
                    return true;
                  })
                  .ok());
  EXPECT_DOUBLE_EQ(total, 5.0);
  EXPECT_EQ(source.scan_count(), 1u);
}

}  // namespace
}  // namespace smartdd
