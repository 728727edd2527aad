// Differential tests for the parallel best-marginal search: for every
// workload and thread count, results (rule, weight, mass, marginal) and the
// search stats must be bit-identical, because chunk boundaries and the
// per-block threshold schedule are independent of the thread count. Views
// below kMinParallelRows search on the calling thread at any thread count,
// so the cases that must reach the thread pool have at least that many
// rows: one in the exact-count regime (synth), one per-row under Sum
// (synth-sum: one search and a 3-step BRS run), the high-cardinality one
// and a full BRS run in the regime.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/best_marginal.h"
#include "core/brs.h"
#include "data/census_gen.h"
#include "data/retail_gen.h"
#include "data/synth.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

struct Finding {
  MarginalRuleResult result;
  MarginalSearchStats stats;
};

Finding RunWithThreads(const TableView& view, const WeightFunction& weight,
                       size_t num_threads, double max_weight,
                       const std::vector<double>& covered) {
  MarginalSearchOptions options;
  options.max_weight = max_weight;
  options.num_threads = num_threads;
  MarginalRuleFinder finder({&view}, weight, options, covered);
  auto found = finder.Find();
  EXPECT_TRUE(found.ok()) << found.status().ToString();
  Finding f;
  f.result = found.ok() ? *found : MarginalRuleResult{};
  f.stats = finder.stats();
  return f;
}

void ExpectIdentical(const Finding& a, const Finding& b, const char* label) {
  EXPECT_EQ(a.result.rule, b.result.rule) << label;
  // Bit-identical, not just approximately equal: the chunked reduction
  // order is fixed, so any difference is a determinism bug.
  EXPECT_EQ(a.result.weight, b.result.weight) << label;
  EXPECT_EQ(a.result.mass, b.result.mass) << label;
  EXPECT_EQ(a.result.marginal, b.result.marginal) << label;
  EXPECT_EQ(a.stats.candidates_counted, b.stats.candidates_counted) << label;
  EXPECT_EQ(a.stats.candidates_generated, b.stats.candidates_generated)
      << label;
  EXPECT_EQ(a.stats.candidates_pruned, b.stats.candidates_pruned) << label;
  EXPECT_EQ(a.stats.tuple_visits, b.stats.tuple_visits) << label;
  EXPECT_EQ(a.stats.passes, b.stats.passes) << label;
}

void CheckAllThreadCounts(const Table& table, const WeightFunction& weight,
                          double max_weight, const char* label) {
  TableView view(table);
  std::vector<double> covered(view.num_rows(), 0.0);
  Finding serial = RunWithThreads(view, weight, 1, max_weight, covered);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    Finding parallel =
        RunWithThreads(view, weight, threads, max_weight, covered);
    ExpectIdentical(serial, parallel, label);
  }
}

TEST(ParallelMarginalTest, CensusIdenticalAcrossThreadCounts) {
  CensusSpec spec;
  spec.rows = 20000;
  spec.columns_used = 7;
  Table table = GenerateCensusTable(spec);
  SizeWeight weight;
  CheckAllThreadCounts(table, weight, 3.0, "census");
}

TEST(ParallelMarginalTest, RetailIdenticalAcrossThreadCounts) {
  Table table = GenerateRetailTable();
  SizeWeight weight;
  CheckAllThreadCounts(table, weight, 5.0, "retail");
}

TEST(ParallelMarginalTest, SynthIdenticalAcrossThreadCounts) {
  SynthSpec spec;
  spec.rows = kMinParallelRows;
  spec.cardinalities = {8, 6, 10, 4, 12};
  spec.zipf = {1.0, 0.6, 1.2, 0.3, 0.9};
  spec.seed = 99;
  Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;
  CheckAllThreadCounts(table, weight, 4.0, "synth");
}

TEST(ParallelMarginalTest, HighCardinalityColumnIdenticalAcrossThreadCounts) {
  // A dictionary wide enough to trip the pass-1 lane memory cap
  // (kMaxLaneCells): fewer lanes, same bit-identical merge.
  SynthSpec spec;
  spec.rows = 300000;
  spec.cardinalities = {300000, 6};
  spec.zipf = {0.4, 1.0};
  spec.seed = 7;
  Table table = GenerateSyntheticTable(spec);
  TableView view(table);
  SizeWeight weight;
  std::vector<double> covered(view.num_rows(), 0.0);

  auto run = [&](size_t threads) {
    MarginalSearchOptions options;
    options.max_weight = 2.0;
    options.max_rule_size = 2;
    options.num_threads = threads;
    MarginalRuleFinder finder({&view}, weight, options, covered);
    auto found = finder.Find();
    EXPECT_TRUE(found.ok()) << found.status().ToString();
    Finding f;
    f.result = found.ok() ? *found : MarginalRuleResult{};
    f.stats = finder.stats();
    return f;
  };
  Finding serial = run(1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    ExpectIdentical(serial, run(threads), "high-cardinality");
  }
}

TEST(ParallelMarginalTest, SumAggregateIdenticalAcrossThreadCounts) {
  // Measure-weighted masses exercise the floating-point merge order.
  SynthSpec spec;
  spec.rows = kMinParallelRows;
  spec.cardinalities = {7, 5, 9};
  spec.seed = 123;
  spec.with_measure = true;
  Table table = GenerateSyntheticTable(spec);
  TableView view(table);
  view.SelectMeasure(0);
  SizeWeight weight;
  std::vector<double> covered(view.num_rows(), 0.0);
  Finding serial = RunWithThreads(view, weight, 1, 3.0, covered);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    Finding parallel = RunWithThreads(view, weight, threads, 3.0, covered);
    ExpectIdentical(serial, parallel, "synth-sum");
  }

  // The per-row path's later greedy steps on the pool: covered-weight
  // updates along value and stored covers, and lane-summed recounts.
  auto brs = [&](size_t threads) {
    BrsOptions options;
    options.k = 3;
    options.num_threads = threads;
    auto result = RunBrs({&view}, weight, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : BrsResult{};
  };
  const BrsResult one = brs(1);
  ASSERT_EQ(one.rules.size(), 3u);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const BrsResult many = brs(threads);
    ASSERT_EQ(many.rules.size(), one.rules.size());
    for (size_t i = 0; i < one.rules.size(); ++i) {
      EXPECT_EQ(many.rules[i].rule, one.rules[i].rule);
      EXPECT_EQ(many.rules[i].mass, one.rules[i].mass);
      EXPECT_EQ(many.rules[i].marginal_value, one.rules[i].marginal_value);
    }
    EXPECT_EQ(many.total_score, one.total_score);
    EXPECT_EQ(many.stats.candidates_counted, one.stats.candidates_counted);
    EXPECT_EQ(many.stats.tuple_visits, one.stats.tuple_visits);
  }
}

TEST(ParallelMarginalTest, CoveredWeightsIdenticalAcrossThreadCounts) {
  // Non-zero covered weights (as in BRS steps 2..k) hit the max(0, ...)
  // clamping path of the marginal accumulation.
  Table table = GenerateRetailTable();
  TableView view(table);
  SizeWeight weight;
  std::vector<double> covered(view.num_rows(), 0.0);
  for (size_t i = 0; i < covered.size(); ++i) covered[i] = (i % 3) * 0.75;
  Finding serial = RunWithThreads(view, weight, 1, 5.0, covered);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    Finding parallel = RunWithThreads(view, weight, threads, 5.0, covered);
    ExpectIdentical(serial, parallel, "retail-covered");
  }
}

TEST(ParallelMarginalTest, FullBrsRunIdenticalAcrossThreadCounts) {
  // End-to-end: k greedy steps, including the covered-weight updates
  // between steps, must agree rule for rule.
  CensusSpec spec;
  spec.rows = kMinParallelRows;
  spec.columns_used = 7;
  Table table = GenerateCensusTable(spec);
  TableView view(table);
  SizeWeight weight;

  auto run = [&](size_t threads) {
    BrsOptions options;
    options.k = 4;
    options.max_weight = 3.0;
    options.num_threads = threads;
    auto result = RunBrs({&view}, weight, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : BrsResult{};
  };

  BrsResult serial = run(1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    BrsResult parallel = run(threads);
    ASSERT_EQ(serial.rules.size(), parallel.rules.size());
    for (size_t i = 0; i < serial.rules.size(); ++i) {
      EXPECT_EQ(serial.rules[i].rule, parallel.rules[i].rule);
      EXPECT_EQ(serial.rules[i].mass, parallel.rules[i].mass);
      EXPECT_EQ(serial.rules[i].marginal_value,
                parallel.rules[i].marginal_value);
    }
    EXPECT_EQ(serial.total_score, parallel.total_score);
    EXPECT_EQ(serial.stats.candidates_counted,
              parallel.stats.candidates_counted);
  }
}

TEST(ParallelMarginalTest, SubsetViewIdenticalAcrossThreadCounts) {
  // A drill-down style subset of the rows, gathered into its own table.
  Table table = GenerateRetailTable();
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < table.num_rows(); i += 2) rows.push_back(i);
  Table subset = table.GatherRows(rows);
  TableView view(subset);
  SizeWeight weight;
  std::vector<double> covered(view.num_rows(), 0.0);
  Finding serial = RunWithThreads(view, weight, 1, 5.0, covered);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    Finding parallel = RunWithThreads(view, weight, threads, 5.0, covered);
    ExpectIdentical(serial, parallel, "retail-subset");
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryChunkOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(hits.size(), 4,
                   [&](uint64_t c) { hits[c].fetch_add(1); });
  for (size_t c = 0; c < hits.size(); ++c) {
    EXPECT_EQ(hits[c].load(), 1) << "chunk " << c;
  }
}

TEST(ThreadPoolTest, BackToBackJobsReuseWorkers) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(64, 3, [&](uint64_t c) { sum.fetch_add(c); });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
  }
}

TEST(ThreadPoolTest, ConcurrentCallersBothComplete) {
  // Multi-user scenario: two threads issue ParallelFor on the same pool at
  // once. Jobs queue FIFO; each caller drives its own job inline, so both
  // must finish with every chunk executed exactly once.
  ThreadPool pool(3);
  auto run_caller = [&pool]() {
    for (int round = 0; round < 20; ++round) {
      std::vector<std::atomic<int>> hits(257);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(hits.size(), 4,
                       [&](uint64_t c) { hits[c].fetch_add(1); });
      for (size_t c = 0; c < hits.size(); ++c) {
        ASSERT_EQ(hits[c].load(), 1) << "round " << round << " chunk " << c;
      }
    }
  };
  std::thread other(run_caller);
  run_caller();
  other.join();
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(16, 3,
                                [&](uint64_t c) {
                                  if (c == 7) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> count{0};
  pool.ParallelFor(8, 3, [&](uint64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

}  // namespace
}  // namespace smartdd
