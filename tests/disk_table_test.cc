#include "storage/disk_table.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

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
  EXPECT_EQ((*dt)->row_bytes(), 1u);  // one u8 cell
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
  EXPECT_EQ((*dt)->row_bytes(), 2u);  // u16 cell
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

// --- Corrupt row data ----------------------------------------------------

/// Overwrites `len` bytes at byte `offset` of row `row`'s record in the
/// data section of `dt`'s file (the rows fill the file's tail).
void PatchRow(const DiskTable& dt, const std::string& path, uint64_t row,
              size_t offset, const void* bytes, size_t len) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  const long data = size - static_cast<long>(dt.num_rows() * dt.row_bytes());
  ASSERT_EQ(std::fseek(f, data + static_cast<long>(row * dt.row_bytes() +
                                                   offset),
                       SEEK_SET),
            0);
  ASSERT_EQ(std::fwrite(bytes, 1, len, f), len);
  std::fclose(f);
}

Status ScanAll(const DiskTable& dt) {
  return dt.Scan([](uint64_t, const uint32_t*, const double*) {
    return true;
  });
}

TEST(DiskTableTest, ScanRejectsOutOfRangeCode) {
  Table t = MakeTable({{"a", "x"}, {"b", "y"}, {"a", "y"}}, {"k1", "k2"});
  std::string path = TempPath("bad_code.sddt");
  ASSERT_TRUE(DiskTable::Write(t, path).ok());
  auto dt = DiskTable::Open(path);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();
  ASSERT_EQ((*dt)->row_bytes(), 2u);  // two 1-byte cells, no measures
  const uint8_t bad = 0xFF;           // dictionary k2 holds 2 values
  PatchRow(**dt, path, 1, 1, &bad, 1);
  Status s = ScanAll(**dt);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("row 1"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("column 1"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
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
    PatchRow(**dt, path, 2, 1, &bad, sizeof bad);  // after the 1-byte cell
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
  const uint8_t bad_code = 0xFF;
  const double bad_measure = std::numeric_limits<double>::quiet_NaN();
  for (bool measure : {false, true}) {
    std::string path = TempPath("bad_sampled.sddt");
    ASSERT_TRUE(DiskTable::Write(table, path).ok());
    auto dt = DiskTable::Open(path);
    ASSERT_TRUE(dt.ok()) << dt.status().ToString();
    if (measure) {
      PatchRow(**dt, path, 4321, 3, &bad_measure, sizeof bad_measure);
    } else {
      PatchRow(**dt, path, 4321, 2, &bad_code, 1);
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
