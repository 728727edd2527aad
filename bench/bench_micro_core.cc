// Google-benchmark micro-benchmarks of the hot paths: rule coverage checks,
// the per-pass counting loop, reservoir sampling, score evaluation, and the
// drill-down filter.

#include <benchmark/benchmark.h>

#include "core/best_marginal.h"
#include "core/score.h"
#include "data/synth.h"
#include "rules/rule_ops.h"
#include "sampling/reservoir.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

Table MakeBenchTable(uint64_t rows) {
  SynthSpec spec;
  spec.rows = rows;
  spec.cardinalities = {8, 6, 10, 4, 12, 5, 7};
  spec.zipf = {1.0, 0.6, 1.2, 0.3, 0.9, 1.1, 0.7};
  spec.seed = 1234;
  return GenerateSyntheticTable(spec);
}

void BM_RuleCovers(benchmark::State& state) {
  Table t = MakeBenchTable(10000);
  Rule r(t.num_columns());
  r.set_value(0, 0);
  r.set_value(2, 0);
  std::vector<uint32_t> codes(t.num_columns());
  uint64_t row = 0;
  for (auto _ : state) {
    t.GetRow(row % t.num_rows(), codes.data());
    benchmark::DoNotOptimize(r.Covers(codes.data()));
    ++row;
  }
}
BENCHMARK(BM_RuleCovers);

void BM_RuleMassFullScan(benchmark::State& state) {
  Table t = MakeBenchTable(static_cast<uint64_t>(state.range(0)));
  TableView v(t);
  Rule r(t.num_columns());
  r.set_value(0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RuleMass(v, r));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RuleMassFullScan)->Arg(10000)->Arg(100000);

void BM_BestMarginalPass(benchmark::State& state) {
  Table t = MakeBenchTable(static_cast<uint64_t>(state.range(0)));
  TableView v(t);
  SizeWeight w;
  MarginalSearchOptions options;
  options.max_weight = 3;
  for (auto _ : state) {
    MarginalRuleFinder finder({&v}, w, options);
    auto result = finder.Find();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BestMarginalPass)->Arg(5000)->Arg(20000);

void BM_ReservoirOffer(benchmark::State& state) {
  ReservoirSampler rs(5000, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Offer());
  }
}
BENCHMARK(BM_ReservoirOffer);

void BM_EvaluateRuleList(benchmark::State& state) {
  Table t = MakeBenchTable(20000);
  TableView v(t);
  SizeWeight w;
  std::vector<Rule> rules;
  for (int i = 0; i < 4; ++i) {
    Rule r(t.num_columns());
    r.set_value(static_cast<size_t>(i) % t.num_columns(), 0);
    if (i % 2 == 0) r.set_value((i + 2) % t.num_columns(), 1);
    rules.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateRuleList({&v}, rules, w));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_EvaluateRuleList);

void BM_FilterRows(benchmark::State& state) {
  Table t = MakeBenchTable(50000);
  TableView v(t);
  Rule r(t.num_columns());
  r.set_value(0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterRows(v, r));
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_FilterRows);

}  // namespace
}  // namespace smartdd

BENCHMARK_MAIN();
