// Google-benchmark micro-benchmarks of the hot paths: rule coverage checks,
// the per-pass counting loop, the finder's bitset kernels on every kernel
// path the host has, reservoir sampling, score evaluation, and the
// drill-down filter.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/best_marginal.h"
#include "core/scan_kernels.h"
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

/// The bench table's rows with one measure column of integers drawn
/// uniformly from [1, 2^p], times `scale`.
Table WithIntegerMeasure(const Table& src, int p, double scale) {
  Table out = Table::EmptyLike(src);
  out.AddMeasureColumn("amount");
  Rng rng(77);
  std::vector<uint32_t> codes(src.num_columns());
  std::vector<double> measure(1);
  for (uint64_t r = 0; r < src.num_rows(); ++r) {
    for (size_t c = 0; c < src.num_columns(); ++c) codes[c] = src.code(c, r);
    measure[0] =
        scale * static_cast<double>(1 + rng.UniformInt(uint64_t{1} << p));
    out.AppendRow(codes, measure);
  }
  out.Freeze();
  return out;
}

/// Sum searches (three greedy steps on one finder, mw = 3 as in
/// BM_BestMarginalPass) over an integer measure in [1, 2^p], which needs
/// p + 1 measure bit-planes: with arg 1 = 0 the measure as is, which takes
/// the exact regime while p + 1 <= kMaxMeasurePlanes, and with arg 1 = 1
/// its half-scaled twin, which always takes the per-row walk. The `regime`
/// counter says which path ran; where the two times cross is where the
/// plane cap belongs.
void BM_BestMarginalSum(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const bool twin = state.range(1) != 0;
  Table t = WithIntegerMeasure(MakeBenchTable(20000), p, twin ? 0.5 : 1.0);
  TableView v(t, 0);
  SizeWeight w;
  MarginalSearchOptions options;
  options.max_weight = 3;
  options.num_threads = 1;
  bool regime = false;
  for (auto _ : state) {
    MarginalRuleFinder finder({&v}, w, options);
    regime = finder.exact_regime();
    for (int step = 0; step < 3; ++step) {
      auto result = finder.Find();
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["regime"] = regime ? 1 : 0;
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_BestMarginalSum)
    ->ArgsProduct({{1, 4, 7, 10, 14}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// `words` random bitset words (about half the bits set), as the finder's
/// row bitsets over views of 64 * words rows.
std::vector<uint64_t> RandomWords(size_t words, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out(words);
  for (uint64_t& w : out) w = rng.Next();
  return out;
}

/// One and_store of two bitsets of arg 0 words (131, 313 and 436 words are
/// views of 8.4k, 20k and 27.9k rows) on one kernel path: the AND and
/// count each candidate's cover takes.
void BM_AndStore(benchmark::State& state, KernelPath path) {
  const ScanKernels& k = GetScanKernels(path);
  const size_t words = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t> a = RandomWords(words, 1);
  const std::vector<uint64_t> b = RandomWords(words, 2);
  std::vector<uint64_t> out(words);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        k.and_store(a.data(), b.data(), words, out.data()));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 3 * 8 *
                          static_cast<int64_t>(words));
}

/// One and_mass of two bitsets of arg 0 words over arg 1 measure planes
/// (0 is a plain popcount, the Count regime's mass) on one kernel path.
void BM_AndMass(benchmark::State& state, KernelPath path) {
  const ScanKernels& k = GetScanKernels(path);
  const size_t words = static_cast<size_t>(state.range(0));
  const size_t planes = static_cast<size_t>(state.range(1));
  const std::vector<uint64_t> a = RandomWords(words, 1);
  const std::vector<uint64_t> b = RandomWords(words, 2);
  const std::vector<uint64_t> p = RandomWords(planes * words, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        k.and_mass(a.data(), b.data(), p.data(), planes, words));
  }
  state.SetBytesProcessed(state.iterations() * (2 + planes) * 8 *
                          static_cast<int64_t>(words));
}

// Named BM_AndStore/<path>/<words> and BM_AndMass/<path>/<words>/<planes>,
// registered for the paths this host has.
const bool kKernelBenchmarks = [] {
  for (KernelPath path : AvailableKernelPaths()) {
    const std::string name = KernelPathName(path);
    benchmark::RegisterBenchmark(("BM_AndStore/" + name).c_str(), BM_AndStore,
                                 path)
        ->Arg(131)
        ->Arg(313)
        ->Arg(436)
        ->Unit(benchmark::kNanosecond);
    benchmark::RegisterBenchmark(("BM_AndMass/" + name).c_str(), BM_AndMass,
                                 path)
        ->ArgsProduct({{131, 313, 436}, {0, 7}})
        ->Unit(benchmark::kNanosecond);
  }
  return true;
}();

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
