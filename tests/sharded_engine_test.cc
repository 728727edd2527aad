// The sharded-engine differential suite: the ShardPlan partition contract,
// and byte-identity of expansion trees across every
// EngineOptions::num_shards x num_threads combination — against
// single-shard serial — on in-memory tables and through the service front
// door, plus thread-count identity on disk-backed scan sources (which are
// never sharded).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/service.h"
#include "common/metrics.h"
#include "data/census_gen.h"
#include "data/synth.h"
#include "explore/engine.h"
#include "explore/session.h"
#include "storage/disk_table.h"
#include "storage/scan_source.h"
#include "storage/shard_plan.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

TEST(ShardPlanTest, PartitionsCoverAllRowsWithoutOverlap) {
  for (uint64_t n : {0ull, 1ull, 7ull, 4096ull, 4097ull, 100000ull, 262144ull}) {
    for (size_t s : {1u, 2u, 3u, 4u, 7u, 16u}) {
      ShardPlan plan = ShardPlan::Make(n, s);
      ASSERT_EQ(plan.num_shards(), s) << "n=" << n << " s=" << s;
      EXPECT_EQ(plan.num_rows(), n);
      uint64_t cursor = 0;
      for (size_t i = 0; i < s; ++i) {
        const ShardRange& r = plan.shard(i);
        // Contiguous in shard order: no gap, no overlap.
        EXPECT_EQ(r.begin, cursor) << "n=" << n << " s=" << s << " i=" << i;
        EXPECT_LE(r.begin, r.end);
        cursor = r.end;
      }
      EXPECT_EQ(cursor, n) << "rows dropped: n=" << n << " s=" << s;
    }
  }
}

TEST(ShardPlanTest, MakeIsAPureFunctionOfItsInputs) {
  for (uint64_t n : {17ull, 9409ull, 500000ull}) {
    for (size_t s : {1u, 2u, 4u, 8u}) {
      ShardPlan a = ShardPlan::Make(n, s);
      ShardPlan b = ShardPlan::Make(n, s);
      ASSERT_EQ(a.num_shards(), b.num_shards());
      for (size_t i = 0; i < a.num_shards(); ++i) {
        EXPECT_EQ(a.shard(i), b.shard(i)) << "n=" << n << " s=" << s;
      }
    }
  }
}

TEST(ShardPlanTest, MoreShardsThanRowsYieldsStableEmptyShards) {
  ShardPlan plan = ShardPlan::Make(3, 8);
  ASSERT_EQ(plan.num_shards(), 8u);
  uint64_t populated = 0;
  for (size_t i = 0; i < 8; ++i) populated += plan.shard(i).num_rows();
  EXPECT_EQ(populated, 3u);
  EXPECT_EQ(plan.shard(7).end, 3u);
}

TEST(ShardPlanTest, ShardOfAgreesWithRanges) {
  ShardPlan plan = ShardPlan::Make(100000, 4);
  for (uint64_t row : {0ull, 4095ull, 4096ull, 50000ull, 99999ull}) {
    size_t s = plan.ShardOf(row);
    EXPECT_GE(row, plan.shard(s).begin);
    EXPECT_LT(row, plan.shard(s).end);
  }
}

TEST(ShardPlanTest, InteriorBoundariesAlignToScanGranule) {
  ShardPlan plan = ShardPlan::Make(1000000, 4);
  for (size_t i = 1; i < plan.num_shards(); ++i) {
    EXPECT_EQ(plan.shard(i).begin % 4096, 0u) << "shard " << i;
  }
}

// --- Differential suite -----------------------------------------------------

/// Exact byte fingerprint of the displayed tree: rule codes, parent links,
/// and the raw IEEE-754 bits of every mass — equal fingerprints mean the
/// trees are identical down to the last ULP, which is the tentpole's
/// contract for every num_shards x num_threads combination.
std::string Fingerprint(const ExplorationSession& session) {
  std::string out;
  char buf[64];
  for (int id : session.DisplayOrder()) {
    const ExplorationNode& n = session.node(id);
    uint64_t mass_bits = 0;
    uint64_t marginal_bits = 0;
    std::memcpy(&mass_bits, &n.mass, sizeof(mass_bits));
    std::memcpy(&marginal_bits, &n.marginal_mass, sizeof(marginal_bits));
    std::snprintf(buf, sizeof(buf), "%d/%d:", id, n.parent);
    out += buf;
    for (size_t c = 0; c < n.rule.num_columns(); ++c) {
      if (n.rule.is_star(c)) {
        out += "*,";
      } else {
        std::snprintf(buf, sizeof(buf), "%u,", n.rule.value(c));
        out += buf;
      }
    }
    std::snprintf(buf, sizeof(buf), "m%llxg%llx%c;",
                  static_cast<unsigned long long>(mass_bits),
                  static_cast<unsigned long long>(marginal_bits),
                  n.exact ? 'e' : 's');
    out += buf;
  }
  return out;
}

/// The fixed interaction script every engine variant replays: expand the
/// root, drill into the first child, star-expand the second child's first
/// starred column, then refresh to exact counts (the ExactMasses path).
std::string DriveScript(ExplorationSession& session) {
  auto level1 = session.Expand(session.root());
  EXPECT_TRUE(level1.ok()) << level1.status().ToString();
  if (!level1.ok() || level1->empty()) return std::string();
  EXPECT_TRUE(session.Expand((*level1)[0]).ok());
  if (level1->size() > 1) {
    const Rule& rule = session.node((*level1)[1]).rule;
    for (size_t c = 0; c < rule.num_columns(); ++c) {
      if (rule.is_star(c)) {
        EXPECT_TRUE(session.ExpandStar((*level1)[1], c).ok());
        break;
      }
    }
  }
  Status refreshed = session.RefreshExactCounts();
  EXPECT_TRUE(refreshed.ok()) << refreshed.ToString();
  return Fingerprint(session);
}

Table ShardableTable() {
  SynthSpec spec;
  spec.rows = 60000;  // > kMinLaneRows so the lane grid actually splits
  spec.cardinalities = {7, 5, 6, 4};
  spec.zipf = {1.2, 0.8, 1.0, 1.4};
  spec.seed = 1234;
  return GenerateSyntheticTable(spec);
}

TEST(ShardedDifferentialTest, MemoryTableTreesAreByteIdentical) {
  Table table = ShardableTable();
  SizeWeight weight;

  // Reference: the classic unsharded engine, fully serial.
  SessionOptions serial;
  serial.k = 3;
  serial.num_threads = 1;
  auto reference = testing::MakeSession(table, weight, serial);
  std::string expected = DriveScript(reference.session);
  ASSERT_FALSE(expected.empty());

  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t threads : {1u, 8u}) {
      EngineOptions options;
      options.num_shards = shards;
      auto engine = ExplorationEngine::Create(table, weight, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ((*engine)->num_shards(), shards);
      SessionOptions so;
      so.k = 3;
      so.num_threads = threads;
      auto session = (*engine)->NewSession(so);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      EXPECT_EQ(DriveScript(*session), expected)
          << "tree drift at num_shards=" << shards
          << " num_threads=" << threads;
    }
  }
}

TEST(ShardedDifferentialTest, SumMeasureTreesAreByteIdentical) {
  // The Sum-aggregate path (measure columns) through SmartDrillDown
  // and the engine's shard-ordered ExactMasses accumulators.
  SynthSpec spec;
  spec.rows = 40000;
  spec.cardinalities = {6, 5, 4};
  spec.zipf = {1.1, 0.9, 1.2};
  spec.seed = 77;
  spec.with_measure = true;
  Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;

  SessionOptions serial;
  serial.k = 3;
  serial.num_threads = 1;
  serial.measure_column = table.measure_name(0);
  auto reference = testing::MakeSession(table, weight, serial);
  std::string expected = DriveScript(reference.session);
  ASSERT_FALSE(expected.empty());

  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t threads : {1u, 8u}) {
      EngineOptions options;
      options.num_shards = shards;
      auto engine = ExplorationEngine::Create(table, weight, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      SessionOptions so = serial;
      so.num_threads = threads;
      auto session = (*engine)->NewSession(so);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      EXPECT_EQ(DriveScript(*session), expected)
          << "Sum tree drift at num_shards=" << shards
          << " num_threads=" << threads;
    }
  }
}

TEST(ShardedDifferentialTest, DiskTableTreesAreByteIdentical) {
  // Scan-source engines are never sharded; the sampling subsystem (seeded
  // sub-reservoirs, chunk-merged ExactMasses) must still be byte-identical
  // for every thread count.
  CensusSpec census;
  census.rows = 40000;
  census.columns_used = 6;
  std::string path = ::testing::TempDir() + "/sharded_diff.sddt";
  ASSERT_TRUE(GenerateCensusDiskTable(census, path).ok());
  auto disk = DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  DiskScanSource source(*disk);
  SizeWeight weight;

  EngineOptions sampling;
  sampling.use_sampling = true;
  sampling.sampler.memory_capacity = 20000;
  sampling.sampler.min_sample_size = 4000;
  sampling.sampler.seed = 99;

  SessionOptions serial;
  serial.k = 3;
  serial.num_threads = 1;
  auto reference = testing::MakeSession(source, weight, serial, sampling);
  std::string expected = DriveScript(reference.session);
  ASSERT_FALSE(expected.empty());

  for (size_t threads : {1u, 8u}) {
    auto engine = ExplorationEngine::Create(source, weight, sampling);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    SessionOptions so;
    so.k = 3;
    so.num_threads = threads;
    auto session = (*engine)->NewSession(so);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(DriveScript(*session), expected)
        << "disk tree drift at num_threads=" << threads;
  }
  std::remove(path.c_str());
}

TEST(EngineShardsTest, SingleShardIsTheBorrowedTable) {
  Table table = ShardableTable();
  SizeWeight weight;
  auto engine = ExplorationEngine::Create(table, weight);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ((*engine)->num_shards(), 1u);
  EXPECT_EQ(&(*engine)->shard(0), &table);  // no copy at N = 1

  EngineOptions options;
  options.num_shards = 2;
  auto sharded = ExplorationEngine::Create(table, weight, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ((*sharded)->num_shards(), 2u);
  EXPECT_NE(&(*sharded)->shard(0), &table);
  EXPECT_EQ((*sharded)->shard(0).num_rows() + (*sharded)->shard(1).num_rows(),
            table.num_rows());
}

TEST(EngineShardsTest, ScanSourceRejectsMultipleShards) {
  Table table = ShardableTable();
  MemoryScanSource source(table);
  SizeWeight weight;
  EngineOptions options;
  options.num_shards = 2;
  auto engine = ExplorationEngine::Create(source, weight, options);
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);

  options.num_shards = 1;
  auto accepted = ExplorationEngine::Create(source, weight, options);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  // A scan-source engine always samples, with default options too.
  EXPECT_NE((*accepted)->sampler(), nullptr);
}

TEST(ShardedServiceTest, AddShardedTableServesIdenticalTreeBytes) {
  Table table = ShardableTable();
  SizeWeight weight;

  auto drive = [](api::ExplorationService& service) {
    std::string open = service.ServeLine("open dataset=t k=3");
    size_t at = open.find("\"session\":\"");
    EXPECT_NE(at, std::string::npos) << open;
    if (at == std::string::npos) return std::string();
    std::string token = open.substr(at + 11, 16);
    EXPECT_NE(service.ServeLine("expand " + token + " 0").find("\"ok\":true"),
              std::string::npos);
    EXPECT_NE(service.ServeLine("expand " + token + " 1").find("\"ok\":true"),
              std::string::npos);
    std::string shown = service.ServeLine("show " + token);
    EXPECT_NE(service.ServeLine("close " + token).find("\"ok\":true"),
              std::string::npos);
    size_t tree = shown.find("\"tree\":");
    EXPECT_NE(tree, std::string::npos) << shown;
    return tree == std::string::npos ? std::string() : shown.substr(tree);
  };

  api::ExplorationService unsharded;
  ASSERT_TRUE(unsharded.AddShardedTable("t", table, weight, 1).ok());
  std::string expected = drive(unsharded);
  ASSERT_FALSE(expected.empty());

  api::ServiceOptions options;
  options.num_shards = 4;  // AddShardedTable(num_shards = 0) inherits this
  api::ExplorationService sharded(options);
  ASSERT_TRUE(sharded.AddShardedTable("t", table, weight).ok());
  EXPECT_EQ(drive(sharded), expected);

  // Duplicate registration still rejected through the sharded front.
  EXPECT_EQ(sharded.AddShardedTable("t", table, weight).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedMetricsTest, PerShardInstrumentsRenderWithShardLabel) {
  Table table = ShardableTable();
  SizeWeight weight;
  EngineOptions options;
  options.num_shards = 2;
  auto engine = ExplorationEngine::Create(table, weight, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  Counter& passes0 = MetricsRegistry::Default().GetCounter(
      "smartdd_shard_scan_passes_total{shard=\"0\"}",
      "Pass-1 scan passes executed by this shard");
  uint64_t passes_before = passes0.value();

  auto session = (*engine)->NewSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Expand(session->root()).ok());

  EXPECT_GT(passes0.value(), passes_before);

  std::string rendered = MetricsRegistry::Default().RenderPrometheus();
  EXPECT_NE(rendered.find("smartdd_shard_rows{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(rendered.find("smartdd_shard_rows{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(rendered.find("smartdd_shard_scan_passes_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(rendered.find("smartdd_sharded_merge_latency_seconds_count"),
            std::string::npos);
  // Labeled samples share one HELP/TYPE header per family.
  EXPECT_EQ(rendered.find("# TYPE smartdd_shard_rows gauge"),
            rendered.rfind("# TYPE smartdd_shard_rows gauge"));
}

}  // namespace
}  // namespace smartdd
