// Pins the sampler's output to fixed digests: a scripted sequence of
// Create, ExactMasses (Count and Sum), Prefetch and leaf Find/Create runs
// on an in-memory and an on-disk source at 1 and 4 threads, and an FNV-1a
// digest of everything it produces must equal the constant below. The
// thread-count suite (parallel_sampling_test) compares runs with each
// other; this test compares them with a fixed reference, so a change to
// the scan path, the chunk reservoirs or the stitch merge that alters a
// single sampled cell, row id, slot position, scale or mass fails here.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synth.h"
#include "sampling/sample_handler.h"
#include "storage/disk_table.h"
#include "storage/scan_source.h"
#include "tests/test_util.h"

namespace smartdd {
namespace {

using ::smartdd::testing::R;

/// Digest of the script below; the same for both sources and every thread
/// count.
constexpr uint64_t kExpectedDigest = 12335600122680045607ULL;

class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Columns at every packed width class (4-bit, 2-bit, 8-bit, 16-bit and a
/// constant column) plus two measures: a fractional "amount", so Sum masses
/// depend on the order of their additions, and "row", the row id, so the
/// digest of a sample's measures pins which rows sit in which slots.
Table MakeDigestTable() {
  SynthSpec spec;
  spec.rows = 30011;  // not a multiple of 4096: chunk ends fall mid-block
  spec.cardinalities = {5, 3, 17, 300, 1};
  spec.zipf = {1.1, 0.6, 1.3, 0.9, 1.0};
  spec.seed = 2024;
  const Table synth = GenerateSyntheticTable(spec);
  Table table = Table::EmptyLike(synth);
  table.AddMeasureColumn("amount");
  table.AddMeasureColumn("row");
  std::vector<uint32_t> codes(synth.num_columns());
  for (uint64_t r = 0; r < synth.num_rows(); ++r) {
    synth.GetRow(r, codes.data());
    const double measures[2] = {0.1 * static_cast<double>(r % 97) + 1.0 / 3.0,
                                static_cast<double>(r)};
    table.AppendRow(codes, measures);
  }
  table.Freeze();
  return table;
}

void HashSample(const SampleRequest& sample, Fnv1a* h) {
  const Table& t = sample.table;
  h->U64(t.num_rows());
  h->F64(sample.scale);
  h->U64(static_cast<uint64_t>(sample.mechanism));
  std::vector<uint32_t> codes(t.num_columns());
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    t.GetRow(r, codes.data());
    h->Bytes(codes.data(), codes.size() * sizeof(uint32_t));
    for (size_t m = 0; m < t.num_measures(); ++m) h->F64(t.measure(m, r));
  }
}

uint64_t RunScript(const ScanSource& source, const Table& table,
                   size_t threads) {
  SampleHandlerOptions options;
  options.memory_capacity = 8000;
  options.min_sample_size = 1000;
  options.seed = 9;
  options.num_threads = threads;
  SampleHandler handler(source, options);
  const size_t cols = table.num_columns();
  Fnv1a h;

  auto root = handler.GetSampleFor(Rule::Trivial(cols));
  EXPECT_TRUE(root.ok()) << root.status().ToString();
  if (root.ok()) HashSample(*root, &h);

  const std::vector<Rule> rules = {
      Rule::Trivial(cols), R(table, {"v0", "?", "?", "?", "?"}),
      R(table, {"?", "v1", "?", "?", "?"}),
      R(table, {"v1", "?", "v2", "?", "?"}),
      R(table, {"?", "?", "?", "v3", "?"}),
      R(table, {"?", "?", "?", "?", "v0"})};
  for (std::optional<size_t> measure :
       {std::optional<size_t>(), std::optional<size_t>(0)}) {
    auto masses = handler.ExactMasses(rules, measure);
    EXPECT_TRUE(masses.ok()) << masses.status().ToString();
    if (!masses.ok()) continue;
    for (double m : *masses) h.F64(m);
  }

  DisplayTree tree;
  DisplayTree::Node node;
  node.rule = Rule::Trivial(cols);
  node.estimated_mass = 30011;
  node.children = {1, 2, 3};
  tree.nodes.push_back(node);
  const Rule leaves[3] = {R(table, {"v0", "?", "?", "?", "?"}),
                          R(table, {"?", "v0", "?", "?", "?"}),
                          R(table, {"v1", "?", "v0", "?", "?"})};
  const double leaf_masses[3] = {9000, 12000, 2500};
  for (int i = 0; i < 3; ++i) {
    DisplayTree::Node leaf;
    leaf.rule = leaves[i];
    leaf.estimated_mass = leaf_masses[i];
    leaf.parent = 0;
    leaf.expand_probability = 0.2 * (i + 1);
    tree.nodes.push_back(leaf);
  }
  handler.SetDisplayedTree(tree);
  EXPECT_TRUE(handler.Prefetch().ok());
  for (const Rule& leaf : leaves) {
    auto sample = handler.GetSampleFor(leaf);
    EXPECT_TRUE(sample.ok()) << sample.status().ToString();
    if (sample.ok()) HashSample(*sample, &h);
  }
  // A rule outside the displayed tree: served by Combine or a fresh Create.
  auto other = handler.GetSampleFor(R(table, {"?", "v2", "v0", "?", "?"}));
  EXPECT_TRUE(other.ok()) << other.status().ToString();
  if (other.ok()) HashSample(*other, &h);

  h.U64(handler.scans_performed());
  h.U64(handler.prefetch_scans());
  h.U64(handler.find_hits());
  h.U64(handler.combine_hits());
  h.U64(handler.creates());
  return h.value();
}

TEST(SamplerDigestTest, MemorySourceMatchesPinnedDigest) {
  const Table table = MakeDigestTable();
  MemoryScanSource source(table);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EXPECT_EQ(RunScript(source, table, threads), kExpectedDigest)
        << "threads=" << threads;
  }
}

TEST(SamplerDigestTest, DiskSourceMatchesPinnedDigest) {
  const Table table = MakeDigestTable();
  const std::string path = ::testing::TempDir() + "smartdd_digest.sddt";
  ASSERT_TRUE(DiskTable::Write(table, path).ok());
  auto disk = DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  DiskScanSource source(*disk);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EXPECT_EQ(RunScript(source, table, threads), kExpectedDigest)
        << "threads=" << threads;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smartdd
