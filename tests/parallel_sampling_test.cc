// Differential tests for the parallel sampling scan (paper §4): for every
// thread count, CreateSamples / ExactMasses / Prefetch must produce
// bit-identical samples, scales, masses, and stats, because chunk
// boundaries, per-chunk RNG streams, and the stitch-merge order depend only
// on the row count and the handler seed — never on the thread count.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/census_gen.h"
#include "data/synth.h"
#include "sampling/sample_handler.h"
#include "storage/disk_table.h"
#include "storage/scan_source.h"
#include "tests/test_util.h"

namespace smartdd {
namespace {

using ::smartdd::testing::R;

// --- ScanChunks partition contract -------------------------------------

void CheckChunkPartition(const ScanSource& source, size_t parallelism) {
  const uint64_t n = source.num_rows();
  const uint64_t num_chunks = ScanSource::PlanChunks(n);
  ASSERT_GE(num_chunks, 2u) << "table too small to exercise chunking";

  // Collect each chunk's visited rows; chunks never share state.
  std::vector<std::vector<uint64_t>> per_chunk(num_chunks);
  Status s = source.ScanChunks(
      num_chunks, parallelism,
      [&](uint64_t chunk, uint64_t row, const uint32_t*, const double*) {
        per_chunk[chunk].push_back(row);
        return true;
      });
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Chunks are contiguous, in row order, and partition [0, n) exactly.
  uint64_t next = 0;
  for (uint64_t c = 0; c < num_chunks; ++c) {
    for (uint64_t row : per_chunk[c]) {
      EXPECT_EQ(row, next) << "chunk " << c;
      ++next;
    }
  }
  EXPECT_EQ(next, n);
}

TEST(ScanChunksTest, MemorySourcePartitionsRowsExactlyOnce) {
  SynthSpec spec;
  spec.rows = 20000;
  spec.cardinalities = {5, 4};
  spec.seed = 17;
  Table table = GenerateSyntheticTable(spec);
  MemoryScanSource source(table);
  CheckChunkPartition(source, 1);
  CheckChunkPartition(source, 8);
  EXPECT_EQ(source.scan_count(), 2u);  // each chunked pass counts once
}

TEST(ScanChunksTest, DiskSourcePartitionsRowsExactlyOnce) {
  SynthSpec spec;
  spec.rows = 12000;
  spec.cardinalities = {6, 3};
  spec.seed = 18;
  spec.with_measure = true;
  Table table = GenerateSyntheticTable(spec);
  std::string path = ::testing::TempDir() + "smartdd_chunked_scan.sddt";
  ASSERT_TRUE(DiskTable::Write(table, path).ok());
  auto disk = DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  DiskScanSource source(*disk);
  CheckChunkPartition(source, 1);
  CheckChunkPartition(source, 8);

  // The chunked pass decodes the same cells as the serial pass.
  std::vector<uint32_t> serial_codes;
  std::vector<double> serial_measures;
  ASSERT_TRUE(source
                  .Scan([&](uint64_t, const uint32_t* codes, const double* m) {
                    serial_codes.push_back(codes[0]);
                    serial_codes.push_back(codes[1]);
                    serial_measures.push_back(m[0]);
                    return true;
                  })
                  .ok());
  std::vector<uint32_t> chunked_codes(serial_codes.size());
  std::vector<double> chunked_measures(serial_measures.size());
  ASSERT_TRUE(source
                  .ScanChunks(ScanSource::PlanChunks(source.num_rows()), 8,
                              [&](uint64_t, uint64_t row,
                                  const uint32_t* codes, const double* m) {
                                chunked_codes[2 * row] = codes[0];
                                chunked_codes[2 * row + 1] = codes[1];
                                chunked_measures[row] = m[0];
                                return true;
                              })
                  .ok());
  EXPECT_EQ(chunked_codes, serial_codes);
  EXPECT_EQ(chunked_measures, serial_measures);
  std::remove(path.c_str());
}

TEST(ScanChunksTest, PlanChunksIsAPureFunctionOfRowCount) {
  EXPECT_EQ(ScanSource::PlanChunks(0), 1u);
  EXPECT_EQ(ScanSource::PlanChunks(4095), 1u);
  EXPECT_EQ(ScanSource::PlanChunks(8192), 2u);
  EXPECT_EQ(ScanSource::PlanChunks(1u << 30), 64u);  // capped
}

// --- Thread-count differential suite ------------------------------------

/// Everything the sampling subsystem produces for one scripted interaction
/// sequence, flattened for exact comparison.
struct SamplingOutcome {
  // GetSampleFor(trivial) — the Create pass.
  uint64_t create_rows = 0;
  double create_scale = 0;
  std::vector<uint32_t> create_codes;  // row-major cells of the sample
  std::vector<double> create_measures;
  // ExactMasses over a rule list.
  std::vector<double> exact_masses;
  // Prefetch over a displayed tree, then the per-leaf Find results.
  std::vector<uint64_t> leaf_rows;       // sample rows per leaf
  std::vector<double> leaf_scales;
  std::vector<uint32_t> leaf_codes;      // concatenated leaf sample cells
  uint64_t scans = 0, prefetch_scans = 0, finds = 0, combines = 0,
           creates = 0;
};

void FlattenTable(const Table& t, std::vector<uint32_t>* codes,
                  std::vector<double>* measures) {
  std::vector<uint32_t> row(t.num_columns());
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    t.GetRow(r, row.data());
    codes->insert(codes->end(), row.begin(), row.end());
    if (measures != nullptr) {
      for (size_t m = 0; m < t.num_measures(); ++m) {
        measures->push_back(t.measure(m, r));
      }
    }
  }
}

SamplingOutcome RunSamplingScript(const ScanSource& source, size_t threads,
                                  const std::vector<Rule>& mass_rules,
                                  const DisplayTree& tree) {
  SampleHandlerOptions options;
  options.memory_capacity = 8000;
  options.min_sample_size = 1000;
  options.seed = 42;
  options.num_threads = threads;
  SampleHandler handler(source, options);
  const size_t cols = source.schema().num_columns();

  SamplingOutcome out;
  auto created = handler.GetSampleFor(Rule::Trivial(cols));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (created.ok()) {
    out.create_rows = created->table.num_rows();
    out.create_scale = created->scale;
    FlattenTable(created->table, &out.create_codes, &out.create_measures);
  }

  auto masses = handler.ExactMasses(mass_rules);
  EXPECT_TRUE(masses.ok()) << masses.status().ToString();
  if (masses.ok()) out.exact_masses = *masses;

  handler.SetDisplayedTree(tree);
  EXPECT_TRUE(handler.Prefetch().ok());
  for (size_t i = 1; i < tree.nodes.size(); ++i) {
    auto leaf = handler.GetSampleFor(tree.nodes[i].rule);
    EXPECT_TRUE(leaf.ok()) << leaf.status().ToString();
    if (!leaf.ok()) continue;
    out.leaf_rows.push_back(leaf->table.num_rows());
    out.leaf_scales.push_back(leaf->scale);
    FlattenTable(leaf->table, &out.leaf_codes, nullptr);
  }

  out.scans = handler.scans_performed();
  out.prefetch_scans = handler.prefetch_scans();
  out.finds = handler.find_hits();
  out.combines = handler.combine_hits();
  out.creates = handler.creates();
  return out;
}

void ExpectIdentical(const SamplingOutcome& a, const SamplingOutcome& b,
                     const char* label) {
  EXPECT_EQ(a.create_rows, b.create_rows) << label;
  // Bit-identical, not approximately equal: any difference across thread
  // counts is a determinism bug in the chunked pass or the stitch merge.
  EXPECT_EQ(a.create_scale, b.create_scale) << label;
  EXPECT_EQ(a.create_codes, b.create_codes) << label;
  EXPECT_EQ(a.create_measures, b.create_measures) << label;
  EXPECT_EQ(a.exact_masses, b.exact_masses) << label;
  EXPECT_EQ(a.leaf_rows, b.leaf_rows) << label;
  EXPECT_EQ(a.leaf_scales, b.leaf_scales) << label;
  EXPECT_EQ(a.leaf_codes, b.leaf_codes) << label;
  EXPECT_EQ(a.scans, b.scans) << label;
  EXPECT_EQ(a.prefetch_scans, b.prefetch_scans) << label;
  EXPECT_EQ(a.finds, b.finds) << label;
  EXPECT_EQ(a.combines, b.combines) << label;
  EXPECT_EQ(a.creates, b.creates) << label;
}

DisplayTree MakeTree(const Table& table, const Rule& leaf1, const Rule& leaf2,
                     double root_mass, double mass1, double mass2) {
  DisplayTree tree;
  DisplayTree::Node root;
  root.rule = Rule::Trivial(table.num_columns());
  root.estimated_mass = root_mass;
  root.children = {1, 2};
  DisplayTree::Node n1;
  n1.rule = leaf1;
  n1.estimated_mass = mass1;
  n1.parent = 0;
  DisplayTree::Node n2;
  n2.rule = leaf2;
  n2.estimated_mass = mass2;
  n2.parent = 0;
  tree.nodes = {root, n1, n2};
  return tree;
}

TEST(ParallelSamplingTest, SynthIdenticalAcrossThreadCounts) {
  SynthSpec spec;
  spec.rows = 30000;
  spec.cardinalities = {6, 5, 4};
  spec.zipf = {1.1, 0.7, 1.3};
  spec.seed = 202;
  Table table = GenerateSyntheticTable(spec);
  MemoryScanSource source(table);

  std::vector<Rule> mass_rules = {Rule::Trivial(3), R(table, {"v0", "?", "?"}),
                                  R(table, {"?", "v1", "?"}),
                                  R(table, {"v0", "?", "v1"})};
  DisplayTree tree = MakeTree(table, R(table, {"v0", "?", "?"}),
                              R(table, {"?", "v0", "?"}), 30000, 4000, 3500);

  SamplingOutcome serial = RunSamplingScript(source, 1, mass_rules, tree);
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    SamplingOutcome parallel =
        RunSamplingScript(source, threads, mass_rules, tree);
    ExpectIdentical(serial, parallel, "synth");
  }
}

TEST(ParallelSamplingTest, SumMeasureIdenticalAcrossThreadCounts) {
  // Measure columns exercise the floating-point chunk-merge order of
  // measure-mode ExactMasses and the measure payloads riding in samples.
  SynthSpec spec;
  spec.rows = 25000;
  spec.cardinalities = {7, 5};
  spec.seed = 77;
  spec.with_measure = true;
  Table table = GenerateSyntheticTable(spec);
  MemoryScanSource source(table);
  std::vector<Rule> rules = {Rule::Trivial(2), R(table, {"v0", "?"})};

  auto run = [&](size_t threads) {
    SampleHandlerOptions options;
    options.memory_capacity = 6000;
    options.min_sample_size = 2000;
    options.num_threads = threads;
    SampleHandler handler(source, options);
    auto counts = handler.ExactMasses(rules);
    auto sums = handler.ExactMasses(rules, 0);
    EXPECT_TRUE(counts.ok() && sums.ok());
    auto sample = handler.GetSampleFor(Rule::Trivial(2));
    EXPECT_TRUE(sample.ok());
    SamplingOutcome out;
    out.exact_masses = *counts;
    out.exact_masses.insert(out.exact_masses.end(), sums->begin(),
                            sums->end());
    out.create_rows = sample->table.num_rows();
    out.create_scale = sample->scale;
    FlattenTable(sample->table, &out.create_codes, &out.create_measures);
    return out;
  };

  SamplingOutcome serial = run(1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SamplingOutcome parallel = run(threads);
    ExpectIdentical(serial, parallel, "synth-sum");
  }
}

TEST(ParallelSamplingTest, DiskSourceIdenticalAcrossThreadCounts) {
  CensusSpec spec;
  spec.rows = 20000;
  spec.columns_used = 6;
  Table table = GenerateCensusTable(spec);
  std::string path = ::testing::TempDir() + "smartdd_parallel_sampling.sddt";
  ASSERT_TRUE(DiskTable::Write(table, path).ok());
  auto disk = DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  DiskScanSource source(*disk);

  std::vector<Rule> mass_rules = {Rule::Trivial(table.num_columns())};
  Rule leaf1(table.num_columns());
  leaf1.set_value(0, 0);
  Rule leaf2(table.num_columns());
  leaf2.set_value(1, 0);
  DisplayTree tree = MakeTree(table, leaf1, leaf2, 20000, 3000, 2500);

  SamplingOutcome serial = RunSamplingScript(source, 1, mass_rules, tree);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SamplingOutcome parallel =
        RunSamplingScript(source, threads, mass_rules, tree);
    ExpectIdentical(serial, parallel, "census-disk");
  }
  std::remove(path.c_str());
}

// --- Statistical validity of the stitched merge --------------------------

TEST(ParallelSamplingTest, StitchedReservoirMergeIsUniform) {
  // A table whose column 0 uniquely identifies the row, big enough for
  // several chunks: repeated Creates with distinct seeds must include every
  // row equally often. Chi-square over per-row inclusion counts.
  const uint64_t n = 16384;
  ASSERT_GE(ScanSource::PlanChunks(n), 4u);
  Table table({"id"});
  for (uint64_t r = 0; r < n; ++r) {
    ASSERT_TRUE(table.AppendRowValues({std::to_string(r)}).ok());
  }
  MemoryScanSource source(table);

  const uint64_t k = 4096;
  const int trials = 40;
  std::vector<uint64_t> inclusions(n, 0);
  for (int t = 0; t < trials; ++t) {
    SampleHandlerOptions options;
    options.memory_capacity = k;
    options.min_sample_size = k;
    options.create_capacity_fraction = 1.0;
    options.seed = 1000 + static_cast<uint64_t>(t);
    SampleHandler handler(source, options);
    auto req = handler.GetSampleFor(Rule::Trivial(1));
    ASSERT_TRUE(req.ok()) << req.status().ToString();
    ASSERT_EQ(req->table.num_rows(), k);
    uint32_t code;
    for (uint64_t r = 0; r < k; ++r) {
      req->table.GetRow(r, &code);
      ++inclusions[code];
    }
  }

  const double p = static_cast<double>(k) / static_cast<double>(n);
  const double expected = static_cast<double>(trials) * p;
  double chi2 = 0;
  for (uint64_t r = 0; r < n; ++r) {
    double d = static_cast<double>(inclusions[r]) - expected;
    chi2 += d * d / expected;
  }
  // Exact fixed-size sampling includes each row with probability exactly
  // k/n, so per-row counts have variance T*p*(1-p) — the (1-p)
  // finite-population correction scales the usual chi-square mean of n-1
  // down to (n-1)(1-p). Six sigma keeps this deterministic-seed test far
  // from flakiness while still catching any non-uniform stitch (a biased
  // merge shifts chi2 by O(n)).
  const double mu = static_cast<double>(n - 1) * (1.0 - p);
  const double sigma = std::sqrt(2.0 * static_cast<double>(n - 1)) * (1.0 - p);
  EXPECT_LT(chi2, mu + 6.0 * sigma)
      << "stitched merge inclusion frequencies are not uniform";
  EXPECT_GT(chi2, mu - 6.0 * sigma)
      << "suspiciously sub-random inclusion frequencies";
}

}  // namespace
}  // namespace smartdd
