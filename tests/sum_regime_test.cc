// Differential suite for Sum searches in the finder's exact regime. A Sum
// over a measure whose every value is a small non-negative integer joins
// the regime (with an integer-valued weight) and weighs its bitset covers
// by measure bit-planes. The same measure scaled by 0.5 stays outside the
// regime, which admits integers only, so its twin search adds the same
// terms, halved, row by row. Halving is exact, so the two must pick the
// same rules with the same weights and every search stat, and every mass,
// marginal and score of the regime search must be exactly twice the
// twin's. Count, the zero-plane case, is held to an all-0.5 measure the
// same way. The grid is {1, 2} shards x {1, 2, 8} threads at the root, in
// a drill-down and in star drill-downs; searches that miss the regime by
// one condition (a fractional value, a value of 2^kMaxMeasurePlanes, a
// total mass times mw of 2^53 or more) must agree with their twins too.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
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

/// `src`'s rows with measure columns "int" (`values`), "half" (`values`
/// times 0.5) and "halves" (all 0.5), sharing its dictionaries.
Table WithMeasures(const Table& src, const std::vector<double>& values) {
  Table out = Table::EmptyLike(src);
  out.AddMeasureColumn("int");
  out.AddMeasureColumn("half");
  out.AddMeasureColumn("halves");
  std::vector<uint32_t> codes(src.num_columns());
  for (uint64_t r = 0; r < src.num_rows(); ++r) {
    for (size_t c = 0; c < src.num_columns(); ++c) codes[c] = src.code(c, r);
    const std::vector<double> measures = {values[r], values[r] * 0.5, 0.5};
    out.AppendRow(codes, measures);
  }
  out.Freeze();
  return out;
}

constexpr size_t kInt = 0;
constexpr size_t kHalf = 1;
constexpr size_t kHalves = 2;

Table SynthCodes(uint64_t rows, std::vector<uint32_t> cardinalities,
                 uint64_t seed) {
  SynthSpec spec;
  spec.rows = rows;
  spec.zipf.assign(cardinalities.size(), 1.0);
  for (size_t c = 0; c < cardinalities.size(); ++c) {
    spec.zipf[c] = 0.7 + 0.1 * static_cast<double>(c % 6);
  }
  spec.cardinalities = std::move(cardinalities);
  spec.seed = seed;
  return GenerateSyntheticTable(spec);
}

/// Integers in [0, max], about one in eight of them 0.
std::vector<double> IntegerMeasure(uint64_t rows, uint64_t max,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(rows);
  for (double& v : values) {
    v = rng.UniformInt(8) == 0 ? 0.0
                               : static_cast<double>(1 + rng.UniformInt(max));
  }
  return values;
}

/// Row-contiguous shard slices of one table, with views over them.
struct Shards {
  std::vector<Table> slices;
  std::deque<TableView> views;

  Shards(const Table& table, size_t num_shards) {
    const ShardPlan plan = ShardPlan::Make(table.num_rows(), num_shards);
    slices.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      slices.push_back(
          table.SliceRows(plan.shard(s).begin, plan.shard(s).end));
    }
  }

  /// Views of every slice: Sum over `measure`, or Count when unset.
  std::vector<const TableView*> Views(std::optional<size_t> measure) {
    std::vector<const TableView*> out;
    for (const Table& t : slices) {
      views.emplace_back(t, measure);
      out.push_back(&views.back());
    }
    return out;
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

/// EXPECT_EQ on doubles is exact: every figure must be twice the twin's.
void ExpectTwice(const std::vector<ScoredRule>& got,
                 const std::vector<ScoredRule>& twin,
                 const std::string& label) {
  ASSERT_EQ(got.size(), twin.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string at = label + " rule " + std::to_string(i);
    EXPECT_EQ(got[i].rule, twin[i].rule) << at;
    EXPECT_EQ(got[i].weight, twin[i].weight) << at;
    EXPECT_EQ(got[i].mass, 2 * twin[i].mass) << at;
    EXPECT_EQ(got[i].marginal_mass, 2 * twin[i].marginal_mass) << at;
    EXPECT_EQ(got[i].marginal_value, 2 * twin[i].marginal_value) << at;
  }
}

void ExpectTwice(const DrillDownResponse& got, const DrillDownResponse& twin,
                 const std::string& label) {
  ExpectTwice(got.steps, twin.steps, label + " steps");
  ExpectTwice(got.rules, twin.rules, label + " rules");
  EXPECT_EQ(got.total_score, 2 * twin.total_score) << label;
  EXPECT_EQ(got.base_mass, 2 * twin.base_mass) << label;
  EXPECT_EQ(got.partial, twin.partial) << label;
  ExpectSameStats(got.stats, twin.stats, label);
}

/// One drill-down request shape: its base and optional star column.
struct Click {
  std::string name;
  Rule base{0};
  std::optional<size_t> star;
};

/// The root, a drill-down on the first column's value in row 0, and star
/// drill-downs on the last column at the root and under that drill-down.
std::vector<Click> Clicks(const Table& table) {
  const size_t cols = table.num_columns();
  Rule drill(cols);
  drill.set_value(0, table.code(0, 0));
  return {Click{"root", Rule(cols), std::nullopt},
          Click{"star", Rule(cols), cols - 1},
          Click{"drill", drill, std::nullopt},
          Click{"drill+star", drill, cols - 1}};
}

/// Whether a finder over `views` at the root runs in the exact regime.
bool InRegime(const std::vector<const TableView*>& views,
              const WeightFunction& weight) {
  return MarginalRuleFinder(views, weight, MarginalSearchOptions{})
      .exact_regime();
}

/// Runs every click at k = 1..`max_k` over the grid: the search over
/// `measure` (Count when unset) at every shard x thread count against its
/// twin over `twin` at one shard and one thread. `in_regime` says whether
/// the first search runs in the exact regime; the twin never does.
void CompareGrid(const Table& table, const WeightFunction& weight,
                 std::optional<size_t> measure, size_t twin, bool in_regime,
                 const std::string& name, size_t max_k = 4) {
  std::vector<Shards> layouts;
  layouts.reserve(2);
  for (size_t shards : {size_t{1}, size_t{2}}) {
    layouts.emplace_back(table, shards);
  }
  const std::vector<const TableView*> twin_views = layouts[0].Views(twin);
  std::vector<std::vector<const TableView*>> views;
  for (Shards& l : layouts) views.push_back(l.Views(measure));
  ASSERT_EQ(InRegime(views[0], weight), in_regime) << name;
  ASSERT_FALSE(InRegime(twin_views, weight)) << name;

  for (const Click& click : Clicks(table)) {
    for (size_t k = 1; k <= max_k; ++k) {
      const std::string config = name + "/" + weight.name() + "/" +
                                 click.name + "/k=" + std::to_string(k);
      DrillDownRequest request;
      request.base = click.base;
      request.star_column = click.star;
      request.k = k;
      request.num_threads = 1;
      auto want = SmartDrillDown(twin_views, weight, request);
      ASSERT_TRUE(want.ok()) << config << ": " << want.status().ToString();
      for (size_t l = 0; l < layouts.size(); ++l) {
        for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
          const std::string label =
              config + " shards=" + std::to_string(layouts[l].slices.size()) +
              " threads=" + std::to_string(threads);
          request.num_threads = threads;
          auto got = SmartDrillDown(views[l], weight, request);
          ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
          ExpectTwice(*got, *want, label);
        }
      }
    }
  }
}

/// The integer-measure and Count pairs under Size, SizeMinusOne and an
/// integer linear weight.
void CompareWeights(const Table& table, bool int_in_regime,
                    const std::string& name) {
  SizeWeight size;
  SizeMinusOneWeight size_minus_one;
  std::vector<double> linear(table.num_columns());
  for (size_t c = 0; c < linear.size(); ++c) {
    linear[c] = static_cast<double>(1 + c % 3);
  }
  LinearColumnWeight integer_linear(linear);
  const std::vector<const WeightFunction*> weights = {
      &size, &size_minus_one, &integer_linear};
  for (const WeightFunction* w : weights) {
    CompareGrid(table, *w, kInt, kHalf, int_in_regime, name + "/int");
  }
  CompareGrid(table, size, std::nullopt, kHalves, true, name + "/count");
}

TEST(SumRegimeTest, SmallIntegersMatchHalfScaledTwin) {
  const Table codes = SynthCodes(20000, {4, 6, 3, 12, 5, 16}, 2016);
  // One plane: every value 0, 1 or 2 (2 takes a second).
  CompareWeights(WithMeasures(codes, IntegerMeasure(20000, 2, 1)), true,
                 "max2");
  // The e2e benchmark's amounts, 1..100: seven planes.
  CompareWeights(WithMeasures(codes, IntegerMeasure(20000, 100, 2)), true,
                 "max100");
}

TEST(SumRegimeTest, LargestAdmittedValuesMatchHalfScaledTwin) {
  const Table codes = SynthCodes(5000, {4, 6, 3, 5}, 7);
  std::vector<double> values = IntegerMeasure(5000, 1000, 3);
  values[17] = std::ldexp(1.0, kMaxMeasurePlanes) - 1;  // every plane set
  CompareWeights(WithMeasures(codes, values), true, "top-plane");
}

TEST(SumRegimeTest, OutOfRegimeMeasuresMatchHalfScaledTwin) {
  const Table codes = SynthCodes(5000, {4, 6, 3, 5}, 9);
  SizeWeight size;
  std::vector<double> fractional = IntegerMeasure(5000, 100, 4);
  fractional[4000] = 3.5;
  CompareGrid(WithMeasures(codes, fractional), size, kInt, kHalf, false,
              "fractional");
  std::vector<double> too_big = IntegerMeasure(5000, 100, 5);
  too_big[2500] = std::ldexp(1.0, kMaxMeasurePlanes);
  CompareGrid(WithMeasures(codes, too_big), size, kInt, kHalf, false,
              "too-big");
  // Every value fits the planes, but a rule of column 0 weighs 2^40 and
  // the total mass exceeds 2^13, so a marginal may reach 2^53.
  const Table wide = WithMeasures(codes, IntegerMeasure(5000, 100, 6));
  LinearColumnWeight heavy({std::ldexp(1.0, 40), 1, 1, 1});
  CompareGrid(wide, heavy, kInt, kHalf, false, "total-x-mw");
  LinearColumnWeight light({2, 1, 1, 1});
  CompareGrid(wide, light, kInt, kHalf, true, "light");
}

TEST(SumRegimeTest, StartingCoveredWeightsMatchHalfScaledTwin) {
  // Direct finder use from integer starting covered weights in several
  // levels, so each marginal weighs more than one level's planes.
  const Table table = WithMeasures(
      SynthCodes(5000, {4, 6, 3, 5, 7}, 31), IntegerMeasure(5000, 100, 8));
  SizeWeight weight;
  std::vector<double> covered(table.num_rows());
  for (uint64_t t = 0; t < covered.size(); ++t) {
    covered[t] = static_cast<double>(t % 4);
  }
  for (size_t shards : {size_t{1}, size_t{2}}) {
    Shards l(table, shards);
    const std::vector<const TableView*> sum = l.Views(kInt);
    const std::vector<const TableView*> half = l.Views(kHalf);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      const std::string label = "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);
      MarginalSearchOptions options;
      options.max_weight = 5;
      options.num_threads = threads;
      MarginalRuleFinder got(sum, weight, options, covered);
      MarginalRuleFinder twin(half, weight, options, covered);
      ASSERT_TRUE(got.exact_regime()) << label;
      ASSERT_FALSE(twin.exact_regime()) << label;
      for (int step = 0; step < 5; ++step) {
        const std::string at = label + " step " + std::to_string(step);
        auto a = got.Find();
        auto b = twin.Find();
        ASSERT_EQ(a.ok(), b.ok()) << at;
        if (!a.ok()) break;
        EXPECT_EQ(a->rule, b->rule) << at;
        EXPECT_EQ(a->weight, b->weight) << at;
        EXPECT_EQ(a->mass, 2 * b->mass) << at;
        EXPECT_EQ(a->marginal, 2 * b->marginal) << at;
        ExpectSameStats(got.stats(), twin.stats(), at);
      }
    }
  }
}

TEST(SumRegimeTest, PoolSizedViewMatchesHalfScaledTwin) {
  // kMinParallelRows rows: the threaded grid points count on the pool.
  const Table codes = SynthCodes(kMinParallelRows, {4, 6, 3, 5}, 17);
  const Table table =
      WithMeasures(codes, IntegerMeasure(kMinParallelRows, 100, 9));
  SizeWeight size;
  CompareGrid(table, size, kInt, kHalf, true, "pool", /*max_k=*/3);
}

}  // namespace
}  // namespace smartdd
