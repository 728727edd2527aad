// Live-table suite: the WAL frame grammar (round-trip, torn-tail
// truncation for every corruption class, fsync batching, fault points),
// the LiveTable version lifecycle (snapshot cadence by rows and injected
// clock, pinning, private dictionaries, recovery across restart), and the
// service-level version contract — a session opened before an append keeps
// rendering bytes identical to a static engine over the pre-append rows.

#include "live/table_versions.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/codec.h"
#include "api/dto.h"
#include "api/service.h"
#include "common/fault_injection.h"
#include "data/synth.h"
#include "live/wal.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using live::LiveTable;
using live::LiveTableOptions;
using live::WalCrc32;
using live::WalReplay;
using live::WalWriter;

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::vector<std::string> ReplayAll(const std::string& path,
                                   live::WalReplayStats* stats = nullptr) {
  std::vector<std::string> records;
  auto result = WalReplay(path, [&](std::string_view payload) {
    records.emplace_back(payload);
    return Status::OK();
  });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (stats != nullptr && result.ok()) *stats = *result;
  return records;
}

uint64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  return static_cast<uint64_t>(in.tellg());
}

void AppendRaw(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// A forged frame: u32 len | u32 crc | payload, little-endian, exactly what
/// WalWriter emits — so tests can plant corrupt variants byte by byte.
std::string Frame(std::string_view payload, uint32_t crc_override = 0,
                  bool override_crc = false, uint32_t len_override = 0,
                  bool override_len = false) {
  uint32_t len = override_len ? len_override
                              : static_cast<uint32_t>(payload.size());
  uint32_t crc = override_crc ? crc_override : WalCrc32(payload);
  std::string frame;
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(len >> (8 * i)));
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(crc >> (8 * i)));
  frame.append(payload);
  return frame;
}

TEST(WalTest, RoundTripPreservesRecordsAndOrder) {
  std::string path = TempPath("wal_roundtrip.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->Append("a,1").ok());
    ASSERT_TRUE((*writer)->Append("b,2").ok());
    ASSERT_TRUE((*writer)->Append("").ok());  // empty payload is a record too
    EXPECT_EQ((*writer)->records_appended(), 3u);
    EXPECT_EQ((*writer)->byte_size(), FileSize(path));
  }
  live::WalReplayStats stats;
  std::vector<std::string> records = ReplayAll(path, &stats);
  ASSERT_EQ(records, (std::vector<std::string>{"a,1", "b,2", ""}));
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  EXPECT_EQ(stats.valid_bytes, FileSize(path));

  // Reopening appends after the existing frames; replay sees everything.
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("c,3").ok());
  EXPECT_EQ((*writer)->records_appended(), 1u);  // this writer's count only
  writer->reset();
  EXPECT_EQ(ReplayAll(path),
            (std::vector<std::string>{"a,1", "b,2", "", "c,3"}));
}

TEST(WalTest, MissingFileReplaysAsEmpty) {
  live::WalReplayStats stats;
  EXPECT_TRUE(ReplayAll(TempPath("wal_never_created.log"), &stats).empty());
  EXPECT_EQ(stats.records, 0u);
}

TEST(WalTest, OversizedRecordRejectedBeforeWrite) {
  std::string path = TempPath("wal_oversized.log");
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  std::string huge(WalWriter::kMaxRecordBytes + 1, 'x');
  EXPECT_FALSE((*writer)->Append(huge).ok());
  ASSERT_TRUE((*writer)->Append("ok").ok());
  writer->reset();
  EXPECT_EQ(ReplayAll(path), std::vector<std::string>{"ok"});
}

TEST(WalTest, BadCrcTailTruncatedToValidPrefix) {
  std::string path = TempPath("wal_badcrc.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("good-1").ok());
    ASSERT_TRUE((*writer)->Append("good-2").ok());
  }
  AppendRaw(path, Frame("evil", WalCrc32("evil") ^ 0xdeadbeef, true));
  uint64_t corrupt_size = FileSize(path);

  live::WalReplayStats stats;
  EXPECT_EQ(ReplayAll(path, &stats),
            (std::vector<std::string>{"good-1", "good-2"}));
  EXPECT_EQ(stats.records, 2u);
  EXPECT_GT(stats.truncated_bytes, 0u);
  EXPECT_EQ(stats.valid_bytes + stats.truncated_bytes, corrupt_size);
  // The torn tail is physically gone: the file shrank to the valid prefix
  // and a second replay is clean.
  EXPECT_EQ(FileSize(path), stats.valid_bytes);
  live::WalReplayStats again;
  EXPECT_EQ(ReplayAll(path, &again).size(), 2u);
  EXPECT_EQ(again.truncated_bytes, 0u);
}

TEST(WalTest, ShortFrameTailTruncated) {
  std::string path = TempPath("wal_short.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("whole").ok());
  }
  // A crash mid-write leaves half a header (3 bytes of a length prefix).
  AppendRaw(path, std::string_view("\x05\x00\x00", 3));
  live::WalReplayStats stats;
  EXPECT_EQ(ReplayAll(path, &stats), std::vector<std::string>{"whole"});
  EXPECT_EQ(stats.truncated_bytes, 3u);
  EXPECT_EQ(FileSize(path), stats.valid_bytes);
}

TEST(WalTest, ShortPayloadTailTruncated) {
  std::string path = TempPath("wal_shortpayload.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("whole").ok());
  }
  // Valid header claiming 100 payload bytes, but only 4 made it to disk.
  std::string torn = Frame("payload-that-never-finished", 0, false, 100, true);
  AppendRaw(path, std::string_view(torn).substr(0, 12));
  live::WalReplayStats stats;
  EXPECT_EQ(ReplayAll(path, &stats), std::vector<std::string>{"whole"});
  EXPECT_GT(stats.truncated_bytes, 0u);
  EXPECT_EQ(FileSize(path), stats.valid_bytes);
}

TEST(WalTest, OversizedLengthPrefixTruncatedNotAllocated) {
  std::string path = TempPath("wal_hugelen.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("sane").ok());
  }
  // A corrupt length prefix claiming 3 GiB must be treated as a torn tail,
  // not driven into an allocation.
  AppendRaw(path, Frame("x", 0, false, 3u << 30, true));
  live::WalReplayStats stats;
  EXPECT_EQ(ReplayAll(path, &stats), std::vector<std::string>{"sane"});
  EXPECT_GT(stats.truncated_bytes, 0u);
  EXPECT_EQ(FileSize(path), stats.valid_bytes);
}

TEST(WalTest, AppendFaultSurfacesErrorAndRecoversAfterDisarm) {
  auto& faults = FaultRegistry::Default();
  faults.DisarmAll();
  std::string path = TempPath("wal_fault_append.log");
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());

  faults.ArmError("live.wal.append", Status::IOError("injected disk full"), 1);
  EXPECT_FALSE((*writer)->Append("lost").ok());
  EXPECT_TRUE((*writer)->Append("kept").ok());
  faults.DisarmAll();
  writer->reset();
  // Whatever the faulted write left behind, recovery yields a valid prefix
  // in which the successful append survives.
  std::vector<std::string> records = ReplayAll(path);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back(), "kept");
}

TEST(WalTest, FsyncBatchingFiresOncePerBatch) {
  auto& faults = FaultRegistry::Default();
  faults.DisarmAll();
  std::string path = TempPath("wal_fsync_batch.log");
  WalWriter::Options options;
  options.fsync_every_records = 3;
  auto writer = WalWriter::Open(path, options);
  ASSERT_TRUE(writer.ok());

  // A zero-latency always-on arming turns the fsync fault point into a
  // counter: fired() deltas count fsyncs without perturbing them.
  faults.ArmLatency("live.wal.fsync", 0.0, 0);
  uint64_t base = faults.fired("live.wal.fsync");
  ASSERT_TRUE((*writer)->Append("r1").ok());
  ASSERT_TRUE((*writer)->Append("r2").ok());
  EXPECT_EQ(faults.fired("live.wal.fsync"), base);  // batch not full yet
  ASSERT_TRUE((*writer)->Append("r3").ok());
  EXPECT_EQ(faults.fired("live.wal.fsync"), base + 1);
  ASSERT_TRUE((*writer)->Append("r4").ok());
  EXPECT_EQ(faults.fired("live.wal.fsync"), base + 1);
  EXPECT_TRUE((*writer)->Sync().ok());  // explicit sync flushes the remainder
  EXPECT_EQ(faults.fired("live.wal.fsync"), base + 2);
  faults.DisarmAll();
}

TEST(WalTest, ReplayShortReadFaultTearsFrame) {
  auto& faults = FaultRegistry::Default();
  faults.DisarmAll();
  std::string path = TempPath("wal_fault_replay.log");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("first").ok());
    ASSERT_TRUE((*writer)->Append("second").ok());
    ASSERT_TRUE((*writer)->Append("third").ok());
  }
  // The flaky-disk scenario: the read of the first frame comes back torn.
  // Replay must treat it exactly like on-disk corruption — truncate from
  // the torn frame on, leaving a (here empty) valid prefix.
  faults.ArmShortRead("live.wal.replay", 1);
  live::WalReplayStats stats;
  std::vector<std::string> records = ReplayAll(path, &stats);
  faults.DisarmAll();
  EXPECT_TRUE(records.empty());
  EXPECT_GT(stats.truncated_bytes, 0u);
  EXPECT_EQ(FileSize(path), stats.valid_bytes);
  // The truncated file is a valid (empty) log: appends flow again.
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append("reborn").ok());
  writer->reset();
  EXPECT_EQ(ReplayAll(path), std::vector<std::string>{"reborn"});
}

// --- LiveTable: version lifecycle -----------------------------------

Table SmallBase() {
  return testing::MakeTable({{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "y"}});
}

TEST(LiveTableTest, RowCadencePublishesVersionsAndPinsOldSnapshots) {
  LiveTableOptions options;
  options.snapshot_every_rows = 2;
  auto table = LiveTable::Create(SmallBase(), options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  auto v1 = (*table)->Latest();
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->table.num_rows(), 4u);

  ASSERT_TRUE((*table)->Append("c,x").ok());
  live::LiveTableInfo info = (*table)->Info();
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.pending_rows, 1u);

  ASSERT_TRUE((*table)->Append("c,z").ok());
  info = (*table)->Info();
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.rows, 6u);
  EXPECT_EQ(info.pending_rows, 0u);

  // The pinned v1 snapshot did not move: same rows, and its dictionary
  // never learned the values version 2 encoded (private code space).
  EXPECT_EQ(v1->table.num_rows(), 4u);
  EXPECT_EQ(v1->table.dictionary(0).size(), 2u);  // a, b
  auto v2 = (*table)->Latest();
  EXPECT_EQ(v2->table.dictionary(0).size(), 3u);  // a, b, c
  EXPECT_EQ(v2->table.dictionary(1).size(), 3u);  // x, y, z
  // Shared prefix of the code space is stable: code k means the same value.
  for (uint32_t code = 0; code < v1->table.dictionary(0).size(); ++code) {
    EXPECT_EQ(v1->table.dictionary(0).ValueOf(code),
              v2->table.dictionary(0).ValueOf(code));
  }
}

TEST(LiveTableTest, ZeroRowCadenceOnlyPublishesExplicitly) {
  LiveTableOptions options;
  options.snapshot_every_rows = 0;
  auto table = LiveTable::Create(SmallBase(), options);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append("c,x").ok());
  ASSERT_TRUE((*table)->Append("d,y").ok());
  EXPECT_EQ((*table)->Info().version, 1u);
  EXPECT_EQ((*table)->Info().pending_rows, 2u);

  auto snapshot = (*table)->PublishSnapshot();
  EXPECT_EQ(snapshot->version, 2u);
  EXPECT_EQ(snapshot->table.num_rows(), 6u);
  EXPECT_EQ((*table)->Info().pending_rows, 0u);
  // Publishing with nothing pending is a no-op, not a version bump.
  EXPECT_EQ((*table)->PublishSnapshot()->version, 2u);
}

TEST(LiveTableTest, TimeCadencePublishesOnInjectedClock) {
  int64_t now_ms = 1000;
  LiveTableOptions options;
  options.snapshot_every_rows = 0;
  options.snapshot_every_ms = 100;
  options.clock_ms = [&now_ms]() { return now_ms; };
  auto table = LiveTable::Create(SmallBase(), options);
  ASSERT_TRUE(table.ok());

  ASSERT_TRUE((*table)->Append("c,x").ok());
  EXPECT_EQ((*table)->Info().version, 1u);  // 0ms elapsed: still pending
  now_ms += 99;
  ASSERT_TRUE((*table)->Append("c,y").ok());
  EXPECT_EQ((*table)->Info().version, 1u);  // 99ms: still inside the window
  now_ms += 1;
  ASSERT_TRUE((*table)->Append("c,z").ok());
  live::LiveTableInfo info = (*table)->Info();
  EXPECT_EQ(info.version, 2u);  // 100ms: all three pending rows publish
  EXPECT_EQ(info.rows, 7u);
  EXPECT_EQ(info.pending_rows, 0u);
}

TEST(LiveTableTest, AppendValidatesBeforeTouchingTheWal) {
  std::string path = TempPath("live_validate.wal");
  LiveTableOptions options;
  options.wal_path = path;

  Table base({"store", "region"});
  base.AddMeasureColumn("sales");
  ASSERT_TRUE(base.AppendRowValues({"a", "x"}, std::vector<double>{1.0}).ok());
  auto table = LiveTable::Create(std::move(base), options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  uint64_t wal_bytes = (*table)->Info().wal_bytes;

  // Wrong arity and an unparsable measure are rejected up front: the WAL
  // must never store a row that cannot replay.
  EXPECT_FALSE((*table)->Append("only-one-cell").ok());
  EXPECT_FALSE((*table)->Append("a,x,not-a-number").ok());
  EXPECT_FALSE((*table)->Append("a,x,1.5,extra").ok());
  EXPECT_FALSE((*table)->Append("").ok());
  EXPECT_EQ((*table)->Info().wal_bytes, wal_bytes);

  ASSERT_TRUE((*table)->Append("b,y,2.5").ok());
  EXPECT_GT((*table)->Info().wal_bytes, wal_bytes);
}

TEST(LiveTableTest, AppendRejectsNonFiniteMeasures) {
  Table base({"store"});
  base.AddMeasureColumn("sales");
  ASSERT_TRUE(base.AppendRowValues({"a"}, std::vector<double>{1.0}).ok());
  auto table = LiveTable::Create(std::move(base), LiveTableOptions{});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  for (const char* row : {"b,nan", "b,inf", "b,-inf", "b,1e999"}) {
    EXPECT_EQ((*table)->Append(row).code(), StatusCode::kInvalidArgument)
        << row;
  }
  EXPECT_TRUE((*table)->Append("b,2.5").ok());
}

TEST(LiveTableTest, EmptyCategoricalCellsBecomeMissingMarker) {
  LiveTableOptions options;
  options.snapshot_every_rows = 1;
  auto table = LiveTable::Create(SmallBase(), options);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append("a,").ok());
  auto v2 = (*table)->Latest();
  const ValueDictionary& dict = v2->table.dictionary(1);
  bool found = false;
  for (uint32_t code = 0; code < dict.size(); ++code) {
    found = found || dict.ValueOf(code) == "?missing";
  }
  EXPECT_TRUE(found) << "empty cell did not map to the ?missing marker";
}

TEST(LiveTableTest, RecoversWalAcrossRestartAsVersionTwo) {
  std::string path = TempPath("live_restart.wal");
  LiveTableOptions options;
  options.wal_path = path;
  options.snapshot_every_rows = 0;  // rows stay pending; only the WAL has them
  {
    auto table = LiveTable::Create(SmallBase(), options);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Append("c,x").ok());
    ASSERT_TRUE((*table)->Append("d,y").ok());
    ASSERT_TRUE((*table)->Append("e,z").ok());
    EXPECT_EQ((*table)->Info().version, 1u);  // never published in-process
  }
  // Restart: recovery replays the WAL and publishes the rows immediately
  // as version 2 — before any session can open against the stale base.
  auto reborn = LiveTable::Create(SmallBase(), options);
  ASSERT_TRUE(reborn.ok()) << reborn.status().ToString();
  live::LiveTableInfo info = (*reborn)->Info();
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.rows, 7u);
  EXPECT_EQ(info.pending_rows, 0u);

  // And appends keep flowing into the same log after recovery.
  ASSERT_TRUE((*reborn)->Append("f,x").ok());
  reborn->reset();
  auto third = LiveTable::Create(SmallBase(), options);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->Info().rows, 8u);
}

TEST(LiveTableTest, RecoveryTruncatesTornTailToValidPrefix) {
  std::string path = TempPath("live_torn.wal");
  LiveTableOptions options;
  options.wal_path = path;
  options.snapshot_every_rows = 0;
  {
    auto table = LiveTable::Create(SmallBase(), options);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Append("c,x").ok());
    ASSERT_TRUE((*table)->Append("d,y").ok());
  }
  // The crash left garbage mid-frame at the tail.
  AppendRaw(path, Frame("e,z", WalCrc32("e,z") ^ 1, true));
  auto reborn = LiveTable::Create(SmallBase(), options);
  ASSERT_TRUE(reborn.ok());
  EXPECT_EQ((*reborn)->Info().rows, 6u);  // 4 base + the 2-row valid prefix
}

TEST(LiveTableTest, ReplayFaultSurfacesThroughCreate) {
  auto& faults = FaultRegistry::Default();
  faults.DisarmAll();
  std::string path = TempPath("live_replay_fault.wal");
  LiveTableOptions options;
  options.wal_path = path;
  {
    auto table = LiveTable::Create(SmallBase(), options);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Append("c,x").ok());
  }
  faults.ArmError("live.wal.replay", Status::IOError("injected replay fail"),
                  1);
  auto reborn = LiveTable::Create(SmallBase(), options);
  faults.DisarmAll();
  EXPECT_FALSE(reborn.ok());
  EXPECT_EQ(reborn.status().code(), StatusCode::kIOError);
}

// --- Service-level version pinning ----------------------------------

Table SynthBase() {
  SynthSpec spec;
  spec.rows = 30000;
  spec.cardinalities = {6, 5, 4};
  spec.zipf = {1.1, 0.7, 1.3};
  spec.seed = 515;
  return GenerateSyntheticTable(spec);
}

uint64_t TokenOf(const std::string& response_line) {
  size_t at = response_line.find("\"session\":\"");
  EXPECT_NE(at, std::string::npos) << response_line;
  if (at == std::string::npos) return 0;
  auto token = api::ParseToken(response_line.substr(at + 11, 16));
  EXPECT_TRUE(token.ok()) << response_line;
  return token.ok() ? *token : 0;
}

std::string TreePayload(const std::string& shown) {
  size_t tree = shown.find("\"tree\":");
  EXPECT_NE(tree, std::string::npos) << shown;
  if (tree == std::string::npos) return {};
  return shown.substr(tree + 7, shown.size() - tree - 7 - 1);
}

TEST(LiveServiceTest, PinnedSessionByteIdenticalToStaticEngine) {
  Table base = SynthBase();
  SizeWeight weight;

  // Baseline: a static (never-versioned) service over the same rows.
  api::ExplorationService fixed;
  ASSERT_TRUE(fixed.AddShardedTable("synth", base, weight).ok());
  std::string fixed_open = fixed.ServeLine("open k=3");
  std::string fixed_tok = api::FormatToken(TokenOf(fixed_open));
  EXPECT_NE(fixed.ServeLine("expand " + fixed_tok + " 0").find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(fixed.ServeLine("expand " + fixed_tok + " 1").find("\"ok\":true"),
            std::string::npos);
  std::string baseline =
      TreePayload(fixed.ServeLine("show " + fixed_tok));

  api::ServiceOptions live_options;
  live_options.live_snapshot_every_rows = 1;
  api::ExplorationService service(live_options);
  ASSERT_TRUE(service.AddLiveTable("synth", base, weight).ok());

  std::string open = service.ServeLine("open k=3");
  std::string tok = api::FormatToken(TokenOf(open));
  EXPECT_NE(service.ServeLine("expand " + tok + " 0").find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service.ServeLine("expand " + tok + " 1").find("\"ok\":true"),
            std::string::npos);
  std::string before = TreePayload(service.ServeLine("show " + tok));
  EXPECT_EQ(before, baseline)
      << "live v1 session diverged from the static engine";

  // Appends publish versions 2 and 3 under the session's feet.
  EXPECT_NE(service.ServeLine("append new0,new1,new2").find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service.ServeLine("append new3,new4,new5").find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service.ServeLine("tableinfo").find("\"version\":3"),
            std::string::npos);

  // The pinned session keeps rendering version-1 bytes.
  EXPECT_EQ(TreePayload(service.ServeLine("show " + tok)), baseline);

  // Replay determinism on the post-append version: a script whose final
  // expand is a cache hit (collapse + re-expand of the same node) must
  // render bytes identical to a cache-disabled live service driven through
  // the identical script over the same version-3 rows.
  api::ServiceOptions uncached_options;
  uncached_options.live_snapshot_every_rows = 1;
  uncached_options.cache_max_bytes = 0;
  api::ExplorationService uncached(uncached_options);
  ASSERT_TRUE(uncached.AddLiveTable("synth", base, weight).ok());
  EXPECT_NE(uncached.ServeLine("append new0,new1,new2").find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(uncached.ServeLine("append new3,new4,new5").find("\"ok\":true"),
            std::string::npos);
  uint64_t hits_before = service.expansion_cache().hits();
  std::string warm_show, cold_show;
  auto drive = [&](api::ExplorationService& svc) {
    std::string t = api::FormatToken(TokenOf(svc.ServeLine("open k=3")));
    for (std::string_view step :
         {"expand @ 0", "expand @ 1", "collapse @ 0", "expand @ 0"}) {
      std::string line(step);
      line.replace(line.find('@'), 1, t);
      EXPECT_NE(svc.ServeLine(line).find("\"ok\":true"), std::string::npos)
          << line;
    }
    std::string shown = TreePayload(svc.ServeLine("show " + t));
    EXPECT_NE(svc.ServeLine("close " + t).find("\"ok\":true"),
              std::string::npos);
    return shown;
  };
  warm_show = drive(service);
  cold_show = drive(uncached);
  EXPECT_GT(service.expansion_cache().hits(), hits_before)
      << "the re-expand should have replayed from the cache";
  EXPECT_EQ(warm_show, cold_show);

  // A session opened now lands on version 3 and sees the appended rows.
  std::string fresh_open = service.ServeLine("open k=3");
  EXPECT_NE(fresh_open.find("\"mass\":30002"), std::string::npos)
      << fresh_open;
  EXPECT_NE(service.ServeLine("close " + api::FormatToken(TokenOf(fresh_open)))
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service.ServeLine("close " + tok).find("\"ok\":true"),
            std::string::npos);
}

TEST(LiveServiceTest, AppendToStaticDatasetRejectedAppendToLiveAccepted) {
  Table base = SynthBase();
  SizeWeight weight;
  api::ExplorationService service;
  ASSERT_TRUE(service.AddShardedTable("static", base, weight).ok());
  ASSERT_TRUE(service.AddLiveTable("live", base, weight).ok());

  std::string rejected = service.ServeLine("append dataset=static a,b,c");
  EXPECT_NE(rejected.find("INVALID_ARGUMENT"), std::string::npos) << rejected;
  EXPECT_NE(service.ServeLine("append dataset=live a,b,c").find("\"ok\":true"),
            std::string::npos);
  std::string unknown = service.ServeLine("append dataset=nope a,b,c");
  EXPECT_NE(unknown.find("NOT_FOUND"), std::string::npos) << unknown;
  // tableinfo on the static dataset reports version 0: it never versions.
  std::string info = service.ServeLine("tableinfo dataset=static");
  EXPECT_NE(info.find("\"version\":0"), std::string::npos) << info;
}

}  // namespace
}  // namespace smartdd
