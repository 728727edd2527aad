// Pins the sampler's output to fixed digests: a scripted sequence of
// Create, ExactMasses (Count and Sum), Prefetch and leaf Find/Create runs
// on an in-memory and an on-disk source at 1 and 4 threads, and an FNV-1a
// digest of everything it produces must equal the constant below. The
// thread-count suite (parallel_sampling_test) compares runs with each
// other; this test compares them with a fixed reference, so a change to
// the scan path, the chunk reservoirs or the stitch merge that alters a
// single sampled cell, row id, slot position, scale or mass fails here.
// A second script pins Combine: Horvitz-Thompson unions of stored sub-rule
// samples, served, stored and found again. CombineUnionTest checks the
// column-at-a-time union against a row-at-a-time reference on random
// sources.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
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

/// Digest of the Combine script below; the same for both sources and every
/// thread count.
constexpr uint64_t kExpectedCombineDigest = 121720055086208066ULL;

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

/// Mechanisms the Combine script expects, in request order.
constexpr SampleMechanism kCombineScript[] = {
    SampleMechanism::kCreate,   // root, bare Create (scale > 1)
    SampleMechanism::kCreate,   // p: too few rows in the root sample
    SampleMechanism::kCombine,  // q: union of the p and root samples
    SampleMechanism::kFind,     // q again: the stored derived union
    SampleMechanism::kCreate,   // s: its whole cover fits (scale 1)
    SampleMechanism::kCombine,  // t: union with the complete s sample
    SampleMechanism::kCreate,   // root, filling the cap M
    SampleMechanism::kCombine,  // p: union too big to store under M
    SampleMechanism::kCombine,  // p again: rebuilt, not found
};

/// A script whose requests reach Combine: a union of two independent
/// sub-rule samples whose stored columns differ, that union served back
/// as a Find, a union over a complete (scale 1) source, and a union that
/// is served but not stored because it does not fit under M. Every sample
/// and the handler counters go into the digest.
uint64_t RunCombineScript(const ScanSource& source, const Table& table,
                          size_t threads) {
  Fnv1a h;
  size_t step = 0;
  auto request = [&](SampleHandler& handler, const Rule& rule) {
    auto sample = handler.GetSampleFor(rule);
    EXPECT_TRUE(sample.ok()) << sample.status().ToString();
    if (!sample.ok()) return;
    EXPECT_EQ(sample->mechanism, kCombineScript[step]) << "request " << step;
    ++step;
    HashSample(*sample, &h);
  };
  auto counters = [&](const SampleHandler& handler) {
    EXPECT_GT(handler.combine_hits(), 0u);
    h.U64(handler.scans_performed());
    h.U64(handler.find_hits());
    h.U64(handler.combine_hits());
    h.U64(handler.creates());
    h.U64(handler.num_samples());
    h.U64(handler.memory_used());
  };
  const Rule root = Rule::Trivial(table.num_columns());
  const Rule p = R(table, {"v2", "?", "?", "?", "?"});
  const Rule q = R(table, {"v2", "v0", "?", "?", "?"});
  const Rule s = R(table, {"v4", "?", "?", "?", "?"});
  const Rule t = R(table, {"v4", "v1", "?", "?", "?"});

  SampleHandlerOptions options;
  options.memory_capacity = 12000;
  options.min_sample_size = 1000;
  options.seed = 11;
  options.num_threads = threads;
  SampleHandler handler(source, options);
  for (const Rule* rule : {&root, &p, &q, &q, &s, &t}) {
    request(handler, *rule);
  }
  counters(handler);

  options.create_capacity_fraction = 1.0;
  SampleHandler capped(source, options);
  for (const Rule* rule : {&root, &p, &p}) request(capped, *rule);
  counters(capped);
  EXPECT_EQ(step, std::size(kCombineScript));
  return h.value();
}

TEST(SamplerDigestTest, CombineMatchesPinnedDigest) {
  const Table table = MakeDigestTable();
  MemoryScanSource memory(table);
  const std::string path = ::testing::TempDir() + "smartdd_combine.sddt";
  ASSERT_TRUE(DiskTable::Write(table, path).ok());
  auto disk = DiskTable::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  DiskScanSource disk_source(*disk);
  for (const ScanSource* source :
       {static_cast<const ScanSource*>(&memory),
        static_cast<const ScanSource*>(&disk_source)}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      EXPECT_EQ(RunCombineScript(*source, table, threads),
                kExpectedCombineDigest)
          << "threads=" << threads;
    }
  }
  std::remove(path.c_str());
}

// --- Combine against the row-at-a-time reference ----------------------

/// The union Combine built before it worked a column at a time, kept here
/// as the reference: per source in order, per slot, the full-width row (the
/// filter's constants plus the stored columns), `Rule::Covers`, a row-id
/// de-duplication and an append, then the minSS check and the
/// Horvitz-Thompson scale.
struct ReferenceUnion {
  bool found = false;
  std::vector<uint64_t> row_ids;
  std::vector<std::vector<uint32_t>> rows;  // full-width codes per tuple
  std::vector<std::vector<double>> measures;
  double scale = 0;
};

ReferenceUnion RowLoopUnion(const Rule& rule,
                            const std::vector<const Sample*>& sources,
                            size_t num_measures, uint64_t min_sample_size) {
  ReferenceUnion ref;
  if (sources.empty()) return ref;
  double miss_prob = 1.0;
  for (const Sample* s : sources) {
    double p = s->scale() > 0 ? std::min(1.0, 1.0 / s->scale()) : 1.0;
    miss_prob *= (1.0 - p);
  }
  const double include_prob = 1.0 - miss_prob;
  if (include_prob <= 0) return ref;

  std::unordered_set<uint64_t> seen;
  std::vector<uint32_t> codes(rule.num_columns());
  for (const Sample* s : sources) {
    for (size_t slot = 0; slot < s->size(); ++slot) {
      for (size_t c = 0; c < rule.num_columns(); ++c) {
        if (!s->filter().is_star(c)) codes[c] = s->filter().value(c);
      }
      for (size_t k = 0; k < s->star_columns().size(); ++k) {
        codes[s->star_columns()[k]] = s->codes(k)[slot];
      }
      if (!rule.Covers(codes.data())) continue;
      if (!seen.insert(s->row_id(slot)).second) continue;
      ref.row_ids.push_back(s->row_id(slot));
      ref.rows.push_back(codes);
      std::vector<double> m(num_measures);
      for (size_t i = 0; i < num_measures; ++i) m[i] = s->measures(i)[slot];
      ref.measures.push_back(std::move(m));
    }
  }
  bool complete = false;
  for (const Sample* s : sources) {
    if (s->scale() <= 1.0) complete = true;
  }
  if (ref.row_ids.size() < min_sample_size && !complete) return ref;
  ref.found = true;
  ref.scale = complete ? 1.0 : 1.0 / include_prob;
  return ref;
}

TEST(CombineUnionTest, MatchesRowLoopReference) {
  size_t found = 0;
  size_t multi_source = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SynthSpec spec;
    spec.rows = 1500 + 37 * seed;
    spec.cardinalities = {3, 4, 2, 5, 3};
    spec.seed = seed;
    spec.with_measure = true;
    const Table table = GenerateSyntheticTable(spec);
    const size_t cols = table.num_columns();
    std::mt19937_64 gen(seed);
    auto uniform = [&gen](uint64_t n) { return gen() % n; };

    // The requested rule, and independent sources whose filters are random
    // sub-rules of it, each holding a random subset of its filter's cover in
    // random slot order: sources overlap, so de-duplication matters.
    Rule rule = Rule::Trivial(cols);
    for (size_t c = 0; c < cols; ++c) {
      if (uniform(2) == 0) {
        rule.set_value(c,
                       static_cast<uint32_t>(uniform(spec.cardinalities[c])));
      }
    }
    std::vector<std::unique_ptr<Sample>> owned;
    std::vector<const Sample*> sources;
    const size_t num_sources = 1 + uniform(4);
    for (size_t i = 0; i < num_sources; ++i) {
      Rule filter = Rule::Trivial(cols);
      for (size_t c = 0; c < cols; ++c) {
        if (!rule.is_star(c) && uniform(2) == 0) {
          filter.set_value(c, rule.value(c));
        }
      }
      std::vector<uint64_t> cover;
      std::vector<uint32_t> codes(cols);
      for (uint64_t r = 0; r < table.num_rows(); ++r) {
        table.GetRow(r, codes.data());
        if (filter.Covers(codes.data())) cover.push_back(r);
      }
      std::shuffle(cover.begin(), cover.end(), gen);
      cover.resize(uniform(cover.size() + 1));
      auto sample = std::make_unique<Sample>(filter, table);
      sample->Resize(cover.size());
      for (size_t slot = 0; slot < cover.size(); ++slot) {
        for (size_t k = 0; k < sample->star_columns().size(); ++k) {
          sample->mutable_codes(k)[slot] =
              table.code(sample->star_columns()[k], cover[slot]);
        }
        sample->mutable_measures(0)[slot] = table.measure(0, cover[slot]);
        sample->mutable_row_ids()[slot] = cover[slot];
      }
      constexpr double kScales[] = {1.0, 1.25, 2.0, 3.5, 10.0, 40.0};
      sample->set_scale(kScales[uniform(std::size(kScales))]);
      sources.push_back(sample.get());
      owned.push_back(std::move(sample));
    }
    const uint64_t min_size = uniform(400);

    const ReferenceUnion want = RowLoopUnion(rule, sources, 1, min_size);
    auto got = CombineSamples(rule, sources, table, min_size);
    ASSERT_EQ(got.ok(), want.found) << "seed " << seed;
    if (!want.found) continue;
    ++found;
    multi_source += num_sources > 1 ? 1 : 0;
    const Sample& u = **got;
    EXPECT_EQ(u.filter(), rule);
    EXPECT_TRUE(u.derived());
    EXPECT_EQ(u.scale(), want.scale) << "seed " << seed;
    EXPECT_EQ(u.source_mass(),
              want.scale * static_cast<double>(want.row_ids.size()));
    ASSERT_EQ(u.size(), want.row_ids.size()) << "seed " << seed;
    EXPECT_EQ(u.row_ids(), want.row_ids) << "seed " << seed;
    const Table m = u.Materialize();
    for (size_t t = 0; t < u.size(); ++t) {
      for (size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(m.code(c, t), want.rows[t][c])
            << "seed " << seed << " tuple " << t << " column " << c;
      }
      ASSERT_EQ(m.measure(0, t), want.measures[t][0])
          << "seed " << seed << " tuple " << t;
    }
  }
  // The grid must exercise real unions, not only refusals.
  EXPECT_GE(found, 20u);
  EXPECT_GE(multi_source, 10u);
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
