// Differential suite for Count in the finder's exact regime. Under Count
// with an integer-valued weight and integer starting covered weights,
// every term mass * (W(r) - cw(t))^+ of a marginal is an integer, so the
// finder may count candidates by any exact method. The same table searched
// as Sum over an all-ones measure column adds the same terms; an all-ones
// measure is a small integer one, so that search is in the regime too and
// counts by a single measure bit-plane. The two must agree bit for bit on
// every rule, weight, mass, marginal and score, and on every search stat,
// for every shard x thread count, at the root, in drill-downs and in star
// drill-downs. Searches outside the regime (fractional weights, fractional
// starting covered weights) must agree too, and so must a search whose
// cover store fills, with its per-row twin over an all-0.5 measure.
// tests/sum_regime_test.cc holds regime searches to per-row twins.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/best_marginal.h"
#include "core/drilldown.h"
#include "data/synth.h"
#include "storage/shard_plan.h"
#include "storage/table_view.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

/// `src`'s rows with one more measure column, `name`, holding `value` in
/// every row, sharing its dictionaries.
Table WithConstant(const Table& src, const std::string& name, double value) {
  Table out = Table::EmptyLike(src);
  const size_t m = out.AddMeasureColumn(name);
  EXPECT_EQ(m, src.num_measures());
  std::vector<uint32_t> codes(src.num_columns());
  std::vector<double> measures(src.num_measures() + 1, value);
  for (uint64_t r = 0; r < src.num_rows(); ++r) {
    for (size_t c = 0; c < src.num_columns(); ++c) codes[c] = src.code(c, r);
    for (size_t k = 0; k < src.num_measures(); ++k) {
      measures[k] = src.measure(k, r);
    }
    out.AppendRow(codes, measures);
  }
  out.Freeze();
  return out;
}

/// `src`'s rows with one measure column of 1.0s, sharing its dictionaries.
Table WithOnes(const Table& src) { return WithConstant(src, "one", 1.0); }

/// A table in the oracle suites' shape: 1-6 columns of 1-4 values, 1-200
/// rows, skewed so that some rules dominate and others tie.
Table OracleTable(Rng& rng) {
  const size_t cols = 1 + rng.UniformInt(6);
  std::vector<uint64_t> card(cols);
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) {
    card[c] = 1 + rng.UniformInt(4);
    names.push_back("c" + std::to_string(c));
  }
  Table table(names);
  const uint64_t rows = 1 + rng.UniformInt(200);
  std::vector<std::string> values(cols);
  for (uint64_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const uint64_t v = std::min(rng.UniformInt(card[c]),
                                  rng.UniformInt(card[c]));
      values[c] = "v" + std::to_string(v);
    }
    EXPECT_TRUE(table.AppendRowValues(values).ok());
  }
  return WithOnes(table);
}

Table SynthTable(uint64_t rows, std::vector<uint32_t> cardinalities,
                 uint64_t seed) {
  SynthSpec spec;
  spec.rows = rows;
  spec.zipf.assign(cardinalities.size(), 1.0);
  for (size_t c = 0; c < cardinalities.size(); ++c) {
    spec.zipf[c] = 0.7 + 0.1 * static_cast<double>(c % 6);
  }
  spec.cardinalities = std::move(cardinalities);
  spec.seed = seed;
  return WithOnes(GenerateSyntheticTable(spec));
}

/// Row-contiguous shard slices of `table`, as Count views and as Sum views
/// over the all-ones column.
struct Shards {
  std::vector<Table> slices;
  std::vector<TableView> count_views;
  std::vector<TableView> sum_views;
  std::vector<const TableView*> count;
  std::vector<const TableView*> sum;

  Shards(const Table& table, size_t num_shards) {
    const ShardPlan plan = ShardPlan::Make(table.num_rows(), num_shards);
    slices.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      slices.push_back(
          table.SliceRows(plan.shard(s).begin, plan.shard(s).end));
    }
    const size_t ones = table.num_measures() - 1;
    for (const Table& t : slices) {
      count_views.emplace_back(t);
      sum_views.emplace_back(t, ones);
    }
    for (size_t s = 0; s < num_shards; ++s) {
      count.push_back(&count_views[s]);
      sum.push_back(&sum_views[s]);
    }
  }
};

void ExpectSameStats(const MarginalSearchStats& a,
                     const MarginalSearchStats& b, const std::string& label) {
  EXPECT_EQ(a.passes, b.passes) << label;
  EXPECT_EQ(a.candidates_generated, b.candidates_generated) << label;
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned) << label;
  EXPECT_EQ(a.candidates_counted, b.candidates_counted) << label;
  EXPECT_EQ(a.candidates_stale_skipped, b.candidates_stale_skipped) << label;
  EXPECT_EQ(a.tuple_visits, b.tuple_visits) << label;
}

/// `stats` is false for a search over one free column in the exact-count
/// regime: its first Count step folds its marginals from the counts
/// without building value covers (so its second step scans again), which
/// Sum never does. Outside the regime Count never folds.
void ExpectSameResponse(const DrillDownResponse& got,
                        const DrillDownResponse& want, bool stats,
                        const std::string& label) {
  ASSERT_EQ(got.rules.size(), want.rules.size()) << label;
  for (size_t i = 0; i < got.rules.size(); ++i) {
    const ScoredRule& x = got.rules[i];
    const ScoredRule& y = want.rules[i];
    EXPECT_EQ(x.rule, y.rule) << label << " rule " << i;
    // EXPECT_EQ on doubles is exact.
    EXPECT_EQ(x.weight, y.weight) << label << " rule " << i;
    EXPECT_EQ(x.mass, y.mass) << label << " rule " << i;
    EXPECT_EQ(x.marginal_mass, y.marginal_mass) << label << " rule " << i;
    EXPECT_EQ(x.marginal_value, y.marginal_value) << label << " rule " << i;
  }
  EXPECT_EQ(got.total_score, want.total_score) << label;
  EXPECT_EQ(got.base_mass, want.base_mass) << label;
  EXPECT_EQ(got.partial, want.partial) << label;
  if (stats) ExpectSameStats(got.stats, want.stats, label);
}

/// One drill-down request shape: its base and optional star column.
struct Click {
  std::string name;
  Rule base{0};
  std::optional<size_t> star;
};

/// The trivial root, a drill-down on the first column's most frequent
/// value, and star drill-downs on the last column at the root and under
/// that drill-down (when the table is wide enough for them).
std::vector<Click> Clicks(const Table& table) {
  const size_t cols = table.num_columns();
  std::vector<Click> clicks;
  clicks.push_back(Click{"root", Rule(cols), std::nullopt});
  if (cols >= 2) {
    clicks.push_back(Click{"star", Rule(cols), cols - 1});
    Rule drill(cols);
    drill.set_value(0, table.code(0, 0));
    clicks.push_back(Click{"drill", drill, std::nullopt});
    if (cols >= 3) clicks.push_back(Click{"drill+star", drill, cols - 1});
  }
  return clicks;
}

/// Runs every click at k = 1..5 as a Sum search over one shard and one
/// thread, and as a Count search at every shard x thread count; each Count
/// response must equal the Sum one. `in_regime` says whether the Count
/// searches run in the exact-count regime.
void CompareGrid(const Table& table, const WeightFunction& weight,
                 bool in_regime, const std::string& name) {
  std::vector<Shards> layouts;
  layouts.reserve(3);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    layouts.emplace_back(table, shards);
  }
  for (const Click& click : Clicks(table)) {
    size_t free = 0;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      free += click.base.is_star(c);
    }
    for (size_t k = 1; k <= 5; ++k) {
      const std::string config = name + "/" + weight.name() + "/" +
                                 click.name + "/k=" + std::to_string(k);
      DrillDownRequest request;
      request.base = click.base;
      request.star_column = click.star;
      request.k = k;
      request.num_threads = 1;
      auto want = SmartDrillDown(layouts[0].sum, weight, request);
      ASSERT_TRUE(want.ok()) << config << ": " << want.status().ToString();
      for (const Shards& l : layouts) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          const std::string label = config +
                                    " shards=" + std::to_string(l.slices.size()) +
                                    " threads=" + std::to_string(threads);
          request.num_threads = threads;
          auto got = SmartDrillDown(l.count, weight, request);
          ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
          ExpectSameResponse(*got, *want, free >= 2 || !in_regime, label);
        }
      }
    }
  }
}

TEST(CountRegimeTest, OracleTablesMatchSumOverOnes) {
  Rng rng(26);
  for (size_t i = 0; i < 12; ++i) {
    const Table table = OracleTable(rng);
    const std::string name = "oracle" + std::to_string(i);
    SizeWeight size;
    SizeMinusOneWeight size_minus_one;
    std::vector<double> linear(table.num_columns());
    for (size_t c = 0; c < linear.size(); ++c) {
      linear[c] = static_cast<double>(1 + rng.UniformInt(3));
    }
    LinearColumnWeight integer_linear(linear);
    CompareGrid(table, size, true, name);
    CompareGrid(table, size_minus_one, true, name);
    CompareGrid(table, integer_linear, true, name);
  }
}

TEST(CountRegimeTest, SynthTableMatchesSumOverOnes) {
  const Table table = SynthTable(20000, {4, 6, 3, 12, 5, 16}, 2016);
  SizeWeight size;
  SizeMinusOneWeight size_minus_one;
  LinearColumnWeight integer_linear({2, 1, 3, 1, 2, 1});
  CompareGrid(table, size, true, "synth20k");
  CompareGrid(table, size_minus_one, true, "synth20k");
  CompareGrid(table, integer_linear, true, "synth20k");
}

TEST(CountRegimeTest, FractionalBitsWeightMatchesSumOverOnes) {
  const Table table = SynthTable(3000, {4, 6, 3, 5}, 7);
  BitsWeight fractional({1.5, 0.25, 2.75, 1.0});
  CompareGrid(table, fractional, false, "fractional-bits");
}

TEST(CountRegimeTest, WideColumnMatchesSumOverOnes) {
  // 200 values next to 3: the wide column's rarer values' covers are lists
  // and its commoner ones' bitsets, and the regime admits the column (a
  // cover's form follows from its rows, so no dictionary size bounds it). The
  // drill-down fixes the first column and searches the 200-value one alone,
  // in the regime with one free column, so its Count steps fold.
  const Table table = SynthTable(20000, {3, 200}, 11);
  SizeWeight size;
  CompareGrid(table, size, true, "wide-column");
}

TEST(CountRegimeTest, FractionalStartingCoveredWeightMatchesSumOverOnes) {
  // Direct finder use from starting covered weights some of which are
  // fractional, so no term is known to be an integer.
  const Table table = SynthTable(5000, {4, 6, 3, 5, 7}, 31);
  SizeWeight weight;
  std::vector<double> covered(table.num_rows());
  for (uint64_t t = 0; t < covered.size(); ++t) {
    covered[t] = static_cast<double>(t % 5) * 0.5;
  }
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    Shards l(table, shards);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string label = "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);
      MarginalSearchOptions options;
      options.max_weight = 5;
      options.num_threads = threads;
      MarginalRuleFinder count(l.count, weight, options, covered);
      MarginalRuleFinder sum(l.sum, weight, options, covered);
      for (int step = 0; step < 5; ++step) {
        auto got = count.Find();
        auto want = sum.Find();
        ASSERT_EQ(got.ok(), want.ok()) << label << " step " << step;
        if (!got.ok()) break;
        EXPECT_EQ(got->rule, want->rule) << label << " step " << step;
        EXPECT_EQ(got->weight, want->weight) << label << " step " << step;
        EXPECT_EQ(got->mass, want->mass) << label << " step " << step;
        EXPECT_EQ(got->marginal, want->marginal) << label << " step " << step;
        ExpectSameStats(count.stats(), sum.stats(),
                        label + " step " + std::to_string(step));
      }
    }
  }
}

TEST(CountRegimeTest, FullCoverStoreStatsMatchPerRowTwin) {
  // 20,000 rows of 7 columns of 4-12 values, Size at the default mw, one
  // finder of 3 Finds on one shard and one thread. The first Find counts
  // ~457,000 candidates. A store holding every cover as a 313-word bitset
  // would fill after 26,800 of them and leave every later Find to recount
  // the rest; as row sets, lists while under 79 rows, they all fit in the
  // 64 MB cap. The Count search runs in the exact regime and its twin, a Sum
  // over an all-0.5 measure, outside it, row by row; a Sum over an all-1.0
  // measure is in the regime like Count. Every cover is one row set whose
  // form follows from its rows, so the three stores keep the same covers
  // and every later Find counts, skips and visits alike: the stats must
  // match, and every mass and marginal must be exactly twice the twin's.
  const Table table = WithConstant(
      SynthTable(20000, {4, 6, 8, 10, 12, 5, 9}, 2017), "half", 0.5);
  TableView count(table);
  TableView ones(table, table.num_measures() - 2);
  TableView halves(table, table.num_measures() - 1);
  SizeWeight weight;
  MarginalSearchOptions options;
  options.num_threads = 1;
  MarginalRuleFinder regime({&count}, weight, options);
  MarginalRuleFinder sum_ones({&ones}, weight, options);
  MarginalRuleFinder per_row({&halves}, weight, options);
  ASSERT_TRUE(regime.exact_regime());
  ASSERT_TRUE(sum_ones.exact_regime());
  ASSERT_FALSE(per_row.exact_regime());
  for (int step = 0; step < 3; ++step) {
    const std::string label = "step " + std::to_string(step);
    auto got = regime.Find();
    auto twin = sum_ones.Find();
    auto want = per_row.Find();
    ASSERT_TRUE(got.ok() && twin.ok() && want.ok()) << label;
    for (const auto* other : {&*twin, &*want}) {
      EXPECT_EQ(got->rule, other->rule) << label;
      EXPECT_EQ(got->weight, other->weight) << label;
    }
    EXPECT_EQ(got->mass, twin->mass) << label;
    EXPECT_EQ(got->marginal, twin->marginal) << label;
    EXPECT_EQ(got->mass, 2 * want->mass) << label;
    EXPECT_EQ(got->marginal, 2 * want->marginal) << label;
    ExpectSameStats(regime.stats(), sum_ones.stats(), label + " ones");
    ExpectSameStats(regime.stats(), per_row.stats(), label + " halves");
  }
}

}  // namespace
}  // namespace smartdd
