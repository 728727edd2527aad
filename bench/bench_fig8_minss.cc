// Figure 8: effect of the minSS (minimum sample size) parameter, for
// {Marketing, Census} x {Size, Bits}:
//   (a) expansion time vs minSS        — grows ~linearly in minSS,
//   (b) percent error of displayed counts vs minSS — shrinks ~1/sqrt(minSS),
//   (c) average number of incorrect rules vs minSS — small, decreasing.
// "Incorrect" means a displayed rule that is not in the full-table top-k
// (paper §5.2.2). Averaged over SMARTDD_BENCH_ITERS runs (paper: 50).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "rules/rule_ops.h"
#include "weights/standard_weights.h"

namespace {

using namespace smartdd;
using namespace smartdd::bench;

struct SeriesContext {
  std::string name;
  const ScanSource* source;
  const WeightFunction* weight;
  double mw;
  /// Ground truth: full-data BRS rules and exact masses of any rule.
  std::vector<Rule> exact_rules;
};

/// Exact masses of rules via one scan of the source.
std::vector<double> ExactMasses(const ScanSource& source,
                                const std::vector<Rule>& rules) {
  std::vector<double> masses(rules.size(), 0.0);
  Status s = source.Scan([&](uint64_t, const uint32_t* codes, const double*) {
    for (size_t i = 0; i < rules.size(); ++i) {
      if (rules[i].Covers(codes)) masses[i] += 1;
    }
    return true;
  });
  SMARTDD_CHECK(s.ok());
  return masses;
}

/// Ground-truth BRS over the full data (materialized in memory once).
std::vector<Rule> FullTableRules(const ScanSource& source,
                                 const WeightFunction& weight, double mw) {
  Table all = source.MakeEmptyTable();
  Status s = source.Scan([&](uint64_t, const uint32_t* codes,
                             const double* measures) {
    all.AppendRow(std::span<const uint32_t>(codes, all.num_columns()),
                  std::span<const double>(measures,
                                          measures ? all.num_measures() : 0));
    return true;
  });
  SMARTDD_CHECK(s.ok());
  TableView view(all);
  BrsOptions options;
  options.num_threads = smartdd::bench::Flags().threads;
  options.k = 4;
  options.max_weight = mw;
  auto result = RunBrs({&view}, weight, options);
  SMARTDD_CHECK(result.ok());
  std::vector<Rule> rules;
  for (const auto& sr : result->rules) rules.push_back(sr.rule);
  return rules;
}

void RunSeries(SeriesContext& ctx, const std::vector<uint64_t>& minss_values,
               uint64_t iters) {
  for (uint64_t minss : minss_values) {
    double time_ms = 0;
    double pct_error = 0;
    double incorrect = 0;
    uint64_t error_samples = 0;
    for (uint64_t it = 0; it < iters; ++it) {
      ExpansionMeasurement m = MeasureExpandEmpty(
          *ctx.source, *ctx.weight, ctx.mw, minss,
          /*memory_capacity=*/std::max<uint64_t>(50000, minss), /*k=*/4,
          /*seed=*/7000 + it * 31);
      time_ms += m.total_ms;

      // (b) percent error of the displayed (scaled) counts.
      std::vector<Rule> shown;
      for (const auto& sr : m.result.rules) shown.push_back(sr.rule);
      std::vector<double> exact = ExactMasses(*ctx.source, shown);
      for (size_t i = 0; i < shown.size(); ++i) {
        if (exact[i] <= 0) continue;
        double estimated = m.result.rules[i].mass * m.scale;
        pct_error += 100.0 * std::abs(estimated - exact[i]) / exact[i];
        ++error_samples;
      }

      // (c) incorrect rules vs the full-table top-k.
      for (const Rule& r : shown) {
        bool found = false;
        for (const Rule& e : ctx.exact_rules) found |= (r == e);
        if (!found) incorrect += 1;
      }
    }
    double n = static_cast<double>(iters);
    PrintSeriesRow(ctx.name + "/time", static_cast<double>(minss),
                   time_ms / n, "minSS", "time_ms");
    PrintSeriesRow(ctx.name + "/error", static_cast<double>(minss),
                   error_samples ? pct_error / error_samples : 0.0, "minSS",
                   "pct_error");
    PrintSeriesRow(ctx.name + "/incorrect", static_cast<double>(minss),
                   incorrect / n, "minSS", "rules");
  }
}

}  // namespace

int main(int argc, char** argv) {
  smartdd::bench::ParseFlags(argc, argv);
  const uint64_t iters = EnvU64("SMARTDD_BENCH_ITERS", 5);

  PrintExperimentHeader(
      "Figure 8 (a,b,c)",
      "expansion time / % count error / incorrect rules vs minSS",
      "(a) time ~linear in minSS; (b) error ~1/sqrt(minSS), well under 1%; "
      "(c) incorrect rules near 0 for Size weighting, ~0-2 for Bits, "
      "decreasing with minSS");

  std::vector<uint64_t> minss_values = {500, 1000, 2000, 3000, 5000, 8000};

  const Table& marketing = Marketing7();
  MemoryScanSource marketing_source(marketing);
  SizeWeight size_weight;
  BitsWeight marketing_bits = BitsWeight::FromTable(marketing);

  const CensusData& census = Census();
  Table census_proto = census.disk->MakeEmptyTable();
  BitsWeight census_bits = BitsWeight::FromTable(census_proto);

  std::vector<SeriesContext> contexts;
  contexts.push_back({"Marketing/Size", &marketing_source, &size_weight, 5, {}});
  contexts.push_back(
      {"Marketing/Bits", &marketing_source, &marketing_bits, 20, {}});
  contexts.push_back({"Census/Size", census.source.get(), &size_weight, 5, {}});
  contexts.push_back(
      {"Census/Bits", census.source.get(), &census_bits, 20, {}});

  for (auto& ctx : contexts) {
    std::fprintf(stderr, "[bench] computing full-table ground truth for %s\n",
                 ctx.name.c_str());
    ctx.exact_rules = FullTableRules(*ctx.source, *ctx.weight, ctx.mw);
    RunSeries(ctx, minss_values, iters);
  }
  return 0;
}
