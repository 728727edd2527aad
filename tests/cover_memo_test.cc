// Differential suite for the marginal finder's cover store. BRS keeps one
// MarginalRuleFinder across its k greedy steps, so later steps count the
// rules they saw before from stored covers, and new rules of arity >= 3 from
// a stored sub-rule cover. The reference here runs every greedy step on a
// fresh finder (no cross-step store); both must agree bit for bit on every
// rule, mass, and score, for every shard x thread x kernel combination,
// while the store walks strictly fewer rows once k >= 2. The finder is also
// a lazy greedy (a rule whose last marginal falls below H is not
// recounted), so it counts strictly fewer candidates once k >= 2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/best_marginal.h"
#include "core/brs.h"
#include "core/score.h"
#include "data/synth.h"
#include "rules/rule_ops.h"
#include "storage/shard_plan.h"
#include "tests/test_util.h"
#include "weights/standard_weights.h"
#include "weights/star_constraint.h"

namespace smartdd {
namespace {

/// RunBrs's greedy loop with a fresh finder per step. Each finder starts
/// from this function's own covered weights (one per row of the views'
/// concatenation), which it raises itself after every pick, so the
/// reference never relies on the finder's own covered-weight update.
BrsResult ReferenceBrs(const std::vector<const TableView*>& views,
                       const WeightFunction& weight,
                       const BrsOptions& options) {
  MarginalSearchOptions search = options;
  if (std::isinf(search.max_weight)) {
    double cap = weight.MaxPossibleWeight(views[0]->num_columns());
    if (std::isfinite(cap)) search.max_weight = cap;
  }

  BrsResult result;
  uint64_t total_rows = 0;
  for (const TableView* v : views) total_rows += v->num_rows();
  std::vector<double> covered(total_rows, 0.0);
  for (size_t step = 0; step < options.k; ++step) {
    MarginalRuleFinder finder(views, weight, search, covered);
    auto found = finder.Find();
    result.stats.Accumulate(finder.stats());
    if (!found.ok()) {
      EXPECT_EQ(found.status().code(), StatusCode::kNotFound);
      break;
    }
    ScoredRule sr;
    sr.rule = found->rule;
    sr.weight = found->weight;
    sr.mass = found->mass;
    sr.marginal_value = found->marginal;
    result.rules.push_back(sr);
    uint64_t begin = 0;
    for (const TableView* v : views) {
      for (uint64_t t = 0; t < v->num_rows(); ++t) {
        if (RuleCoversRow(found->rule, *v, t)) {
          covered[begin + t] = std::max(covered[begin + t], found->weight);
        }
      }
      begin += v->num_rows();
    }
  }
  std::stable_sort(result.rules.begin(), result.rules.end(),
                   [](const ScoredRule& a, const ScoredRule& b) {
                     return a.weight > b.weight;
                   });
  std::vector<Rule> in_order;
  for (const auto& r : result.rules) in_order.push_back(r.rule);
  RuleListEvaluation eval = EvaluateRuleList(views, in_order, weight);
  for (size_t i = 0; i < result.rules.size(); ++i) {
    result.rules[i].mass = eval.mass[i];
    result.rules[i].marginal_mass = eval.marginal_mass[i];
  }
  result.total_score = eval.total_score;
  return result;
}

void ExpectBitIdentical(const BrsResult& a, const BrsResult& b,
                        const std::string& label) {
  ASSERT_EQ(a.rules.size(), b.rules.size()) << label;
  for (size_t i = 0; i < a.rules.size(); ++i) {
    const ScoredRule& x = a.rules[i];
    const ScoredRule& y = b.rules[i];
    EXPECT_EQ(x.rule, y.rule) << label << " rule " << i;
    // EXPECT_EQ on doubles is exact: any drift in summation order shows.
    EXPECT_EQ(x.weight, y.weight) << label << " rule " << i;
    EXPECT_EQ(x.mass, y.mass) << label << " rule " << i;
    EXPECT_EQ(x.marginal_mass, y.marginal_mass) << label << " rule " << i;
    EXPECT_EQ(x.marginal_value, y.marginal_value) << label << " rule " << i;
  }
  EXPECT_EQ(a.total_score, b.total_score) << label;
}

/// Row-contiguous shard slices of `table`, Sum over its measure if asked.
struct Shards {
  std::vector<Table> slices;
  std::vector<TableView> views;
  std::vector<const TableView*> ptrs;

  Shards(const Table& table, size_t num_shards, bool sum) {
    ShardPlan plan = ShardPlan::Make(table.num_rows(), num_shards);
    slices.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      slices.push_back(
          table.SliceRows(plan.shard(s).begin, plan.shard(s).end));
    }
    for (const Table& t : slices) {
      views.emplace_back(t);
      if (sum) views.back().SelectMeasure(0);
    }
    for (const TableView& v : views) ptrs.push_back(&v);
  }
};

/// Each shard's cover of a drill-down base gathered into its own table, as
/// SmartDrillDown does; a shard the base covers entirely is kept as it is.
struct Covers {
  std::vector<Table> tables;
  std::vector<TableView> views;

  std::vector<const TableView*> Gather(
      const std::vector<const TableView*>& shards, const Rule& base) {
    tables.reserve(shards.size());  // views point into both vectors
    views.reserve(shards.size());
    std::vector<const TableView*> out = shards;
    for (size_t i = 0; i < shards.size(); ++i) {
      std::optional<Table> cover = GatherCover(*shards[i], base);
      if (!cover) continue;
      tables.push_back(std::move(*cover));
      out[i] = &views.emplace_back(tables.back(), shards[i]->measure_index());
    }
    return out;
  }
};

enum class Base { kTrivial, kDrillDown, kStarColumn };

const char* BaseName(Base b) {
  switch (b) {
    case Base::kTrivial: return "trivial";
    case Base::kDrillDown: return "drilldown";
    case Base::kStarColumn: return "star";
  }
  return "?";
}

/// A 5-column synthetic table with a non-integer measure, so that Sum
/// masses depend on the order they are added in.
Table GridTable() {
  SynthSpec spec;
  spec.rows = 2500;
  spec.cardinalities = {4, 5, 3, 6, 4};
  spec.zipf = {1.1, 0.7, 1.3, 0.9, 1.0};
  spec.seed = 4242;
  spec.with_measure = true;
  return GenerateSyntheticTable(spec);
}

TEST(CoverMemoTest, BrsMatchesFreshFinderPerStepAcrossTheGrid) {
  const Table table = GridTable();
  SizeWeight size;
  BitsWeight bits = BitsWeight::FromTable(table);
  // Drill-down base: the first column's most frequent value (code 0 of a
  // Zipf column), the reduction SmartDrillDown applies.
  Rule drill_base(table.num_columns());
  drill_base.set_value(0, 0);
  const size_t star_col = 1;

  for (bool sum : {false, true}) {
    for (const WeightFunction* base_weight :
         {static_cast<const WeightFunction*>(&size),
          static_cast<const WeightFunction*>(&bits)}) {
      for (Base base : {Base::kTrivial, Base::kDrillDown, Base::kStarColumn}) {
        std::optional<StarConstraintWeight> star_weight;
        const WeightFunction* weight = base_weight;
        if (base == Base::kStarColumn) {
          star_weight.emplace(*base_weight, star_col);
          weight = &*star_weight;
        }
        BrsOptions options;
        options.base_rule = base == Base::kDrillDown
                                ? drill_base
                                : Rule(table.num_columns());
        for (size_t c = 0; c < table.num_columns(); ++c) {
          if (options.base_rule->is_star(c)) {
            options.allowed_columns.push_back(c);
          }
        }

        // One logical table per shard count; drill-downs gather each
        // shard's cover of the base, as SmartDrillDown does.
        struct Layout {
          size_t shards;
          Shards raw;
          Covers covers;
          std::vector<const TableView*> views;
        };
        std::vector<Layout> layouts;
        layouts.reserve(3);
        for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
          layouts.push_back(Layout{shards, Shards(table, shards, sum), {}, {}});
          Layout& l = layouts.back();
          if (base == Base::kDrillDown) {
            l.views = l.covers.Gather(l.raw.ptrs, drill_base);
          } else {
            l.views = l.raw.ptrs;
          }
        }

        for (size_t k = 1; k <= 5; ++k) {
          const std::string config =
              std::string(sum ? "Sum" : "Count") + "/" + base_weight->name() +
              "/" + BaseName(base) + "/k=" + std::to_string(k);
          options.k = k;
          options.num_threads = 1;
          BrsResult reference;
          {
            testing::ScopedKernel scalar("scalar");
            reference = ReferenceBrs(layouts[0].views, *weight, options);
          }
          ASSERT_EQ(reference.rules.size(), k) << config;

          std::optional<uint64_t> visits;
          std::optional<size_t> counted;
          std::optional<size_t> stale;
          for (const Layout& l : layouts) {
            for (size_t threads : {size_t{1}, size_t{4}}) {
              for (const char* kernel : {"scalar", "auto"}) {
                const std::string label =
                    config + " shards=" + std::to_string(l.shards) +
                    " threads=" + std::to_string(threads) +
                    " kernel=" + kernel;
                options.num_threads = threads;
                testing::ScopedKernel scoped(kernel);
                auto got = RunBrs(l.views, *weight, options);
                ASSERT_TRUE(got.ok()) << label << ": "
                                      << got.status().ToString();
                ExpectBitIdentical(*got, reference, label);
                if (!counted) {
                  counted = got->stats.candidates_counted;
                  stale = got->stats.candidates_stale_skipped;
                }
                EXPECT_EQ(got->stats.candidates_counted, *counted) << label;
                EXPECT_EQ(got->stats.candidates_stale_skipped, *stale)
                    << label;
                if (!visits) visits = got->stats.tuple_visits;
                EXPECT_EQ(got->stats.tuple_visits, *visits) << label;
              }
            }
          }
          if (k >= 2) {
            EXPECT_LT(*visits, reference.stats.tuple_visits)
                << config << ": later steps should walk stored covers";
          } else {
            EXPECT_EQ(*visits, reference.stats.tuple_visits) << config;
          }
          // Lazy greedy: a later step recounts only the rules whose last
          // marginal can still reach H.
          EXPECT_LE(*counted, reference.stats.candidates_counted) << config;
          if (k >= 2) {
            EXPECT_LT(*counted, reference.stats.candidates_counted)
                << config << ": later steps should skip stale rules";
            EXPECT_GT(*stale, 0u) << config;
          }
        }
      }
    }
  }
}

TEST(CoverMemoTest, SizeOneCappedSearchesMatchFreshFinderPerStep) {
  // A search capped at size-1 rules builds the value covers on its first
  // step (its second under Count, whose first step folds its marginals from
  // the counts), and later steps update the covered weights along the
  // winner's cover and recount only the singletons that can still reach H.
  // Two such searches: max_rule_size = 1 over the whole table, and a
  // drill-down whose base leaves one column free.
  const Table table = GridTable();
  SizeWeight weight;
  const size_t free_col = 3;
  Rule drill_base(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c != free_col) drill_base.set_value(c, 0);
  }

  for (bool sum : {false, true}) {
    for (bool drill : {false, true}) {
      BrsOptions options;
      options.k = 3;
      if (drill) {
        options.base_rule = drill_base;
        options.allowed_columns = {free_col};
      } else {
        options.max_rule_size = 1;
      }
      std::vector<Shards> raw;
      raw.reserve(2);
      std::vector<Covers> covers(2);
      std::vector<std::vector<const TableView*>> views(2);
      for (size_t i = 0; i < 2; ++i) {
        raw.emplace_back(table, i + 1, sum);
        views[i] = drill ? covers[i].Gather(raw[i].ptrs, drill_base)
                         : raw[i].ptrs;
      }
      const std::string config = std::string(sum ? "Sum" : "Count") + "/" +
                                 (drill ? "drilldown" : "max_rule_size=1");
      options.num_threads = 1;
      const BrsResult reference = ReferenceBrs(views[0], weight, options);
      ASSERT_EQ(reference.rules.size(), options.k) << config;
      std::optional<uint64_t> visits;
      std::optional<size_t> counted;
      std::optional<size_t> stale;
      for (size_t i = 0; i < 2; ++i) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          const std::string label = config +
                                    " shards=" + std::to_string(i + 1) +
                                    " threads=" + std::to_string(threads);
          options.num_threads = threads;
          auto got = RunBrs(views[i], weight, options);
          ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
          ExpectBitIdentical(*got, reference, label);
          if (!visits) {
            visits = got->stats.tuple_visits;
            counted = got->stats.candidates_counted;
            stale = got->stats.candidates_stale_skipped;
          }
          EXPECT_EQ(got->stats.tuple_visits, *visits) << label;
          EXPECT_EQ(got->stats.candidates_counted, *counted) << label;
          EXPECT_EQ(got->stats.candidates_stale_skipped, *stale) << label;
        }
      }
      // k = 3: later steps read value covers instead of rescanning.
      EXPECT_LT(*visits, reference.stats.tuple_visits) << config;
      EXPECT_LE(*counted, reference.stats.candidates_counted) << config;
    }
  }
}

TEST(CoverMemoTest, MultiLaneRecountsMatchFreshFinders) {
  // Enough rows for pass 1 to split each column into several lanes: a
  // later step's singleton recount must add its lane sums in lane order to
  // reproduce the scan's floats (the grid above fits in one lane).
  SynthSpec spec;
  spec.rows = 40000;
  spec.cardinalities = {3, 7, 4, 5};
  spec.zipf = {1.0, 0.8, 1.2, 0.9};
  spec.seed = 977;
  spec.with_measure = true;
  const Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;
  BrsOptions options;
  options.k = 4;
  options.num_threads = 1;
  Shards one(table, 1, /*sum=*/true);
  const BrsResult reference = ReferenceBrs(one.ptrs, weight, options);
  ASSERT_EQ(reference.rules.size(), options.k);
  for (size_t shards : {size_t{1}, size_t{3}}) {
    Shards layout(table, shards, /*sum=*/true);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      options.num_threads = threads;
      auto got = RunBrs(layout.ptrs, weight, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::string label = "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);
      ExpectBitIdentical(*got, reference, label);
      EXPECT_GT(got->stats.candidates_stale_skipped, 0u) << label;
    }
  }
}

TEST(CoverMemoTest, RecountedTieWithHWinsOnWeight) {
  // Step 2 of this table is a tie at marginal 40 between a=ay (weight 1)
  // and b=bz (weight 2), both untouched by step 1's pick, so their last
  // marginals are exact. a=ay is recounted first and sets H = 40; b=bz's
  // last marginal equals H, and only recounting it lets the tie-break
  // pick it for its higher weight.
  Table table({"a", "b", "c"});
  auto add = [&](const std::string& a, const std::string& b,
                 const std::string& c) {
    ASSERT_TRUE(table.AppendRowValues({a, b, c}, {}).ok());
  };
  for (int i = 0; i < 15; ++i) add("ax", "bx", "cx");  // step 1: weight 4
  for (int i = 0; i < 40; ++i) {
    add("ay", "by" + std::to_string(i), "cy" + std::to_string(i));
  }
  for (int i = 0; i < 20; ++i) {
    add("az" + std::to_string(i), "bz", "cz" + std::to_string(i));
  }
  table.Freeze();
  TableView view(table);
  LinearColumnWeight weight({1, 2, 1});
  BrsOptions options;
  options.k = 2;
  options.num_threads = 1;
  const BrsResult reference = ReferenceBrs({&view}, weight, options);
  auto got = RunBrs({&view}, weight, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(*got, reference, "tie");
  ASSERT_EQ(got->rules.size(), 2u);
  Rule bz(table.num_columns());
  bz.set_value(1, *table.dictionary(1).Find("bz"));
  EXPECT_EQ(got->rules[1].rule, bz);
  EXPECT_EQ(got->rules[1].marginal_value, 40);
}

/// `rows` rows of `correlated` binary columns, which in 9 rows of 10 all
/// copy one random bit (each draws its own bit otherwise), then one column
/// per entry of `uniform` with that many uniformly drawn values, and a
/// measure uniform in [0, 100).
Table CorrelatedTable(uint64_t rows, size_t correlated,
                      const std::vector<uint32_t>& uniform, uint64_t seed) {
  std::vector<uint32_t> cards(correlated, 2);
  cards.insert(cards.end(), uniform.begin(), uniform.end());
  std::vector<std::string> names;
  for (size_t c = 0; c < cards.size(); ++c) {
    names.push_back("c" + std::to_string(c));
  }
  Table table(names);
  table.AddMeasureColumn("value");
  for (size_t c = 0; c < cards.size(); ++c) {
    for (uint32_t v = 0; v < cards[c]; ++v) {
      table.EncodeValue(c, "v" + std::to_string(v));  // code v
    }
  }
  Rng rng(seed);
  std::vector<uint32_t> codes(cards.size());
  for (uint64_t r = 0; r < rows; ++r) {
    const uint32_t shared = static_cast<uint32_t>(rng.UniformInt(2));
    const bool together = rng.UniformInt(10) != 0;
    for (size_t c = 0; c < cards.size(); ++c) {
      codes[c] = c < correlated && together
                     ? shared
                     : static_cast<uint32_t>(rng.UniformInt(cards[c]));
    }
    table.AppendRow(codes, std::vector<double>{rng.UniformDouble() * 100.0});
  }
  table.Freeze();
  return table;
}

TEST(CoverMemoTest, WinnersTheFullStoreDidNotKeepMatchFreshFinders) {
  // These tables were sized to fill the cover store before their winning
  // rules were counted when it had two caps, 2^23 bitset words in the exact
  // regime and 2^24 row ids outside it. Under its one cap of 64 MB = 2^23
  // words, where a cover is a row list (4 bytes a row) while it has fewer
  // rows than a quarter of the bitset's words and a bitset otherwise,
  // neither fills it, so both now check winners the store kept;
  // WinnersPastTheStoreByteCapMatchFreshFinders fills it.
  // Exhaustive pruning counts every rule with rows.
  //  - Count under Size, in the exact regime: at 64,000 rows a bitset is
  //    1,000 words. Passes 2 and 3 store the 20 rules on the three binary
  //    columns and the 1,200 rules of one binary and one 100-value column
  //    (~320 rows) as bitsets, the 1,200 rules of two binary and one
  //    100-value column (~160 rows) as lists of 80 words, and ~70,000
  //    rules on both 100-value columns (~6 and ~3 rows) as lists of 3 and
  //    2 words: about 1,220,000 + 96,000 + 150,000 = 1,466,000 words.
  //    Three correlated columns make arity-3 rules win.
  //  - Sum under Size, outside the regime: at 110,000 rows a bitset is
  //    1,719 words. 10 binary columns give 4 * C(10, 2) + 8 * C(10, 3) =
  //    1,140 rules of arity 2 and 3, so passes 2 and 3 store at most
  //    1,140 * 1,719 = 1,959,660 words. Four correlated columns make
  //    arity-4 rules win.
  struct Case {
    std::string name;
    Table table;
    bool sum;
    size_t max_rule_size;
  };
  std::vector<Case> cases;
  cases.push_back(
      Case{"Count", CorrelatedTable(64000, 3, {100, 100}, 281), false, 3});
  cases.push_back(Case{"Sum",
                       CorrelatedTable(110000, 4, {2, 2, 2, 2, 2, 2}, 282),
                       true, 4});
  SizeWeight weight;
  for (const Case& c : cases) {
    BrsOptions options;
    options.k = 4;
    options.pruning = PruningMode::kExhaustive;
    options.max_rule_size = c.max_rule_size;
    options.num_threads = 1;
    Shards one(c.table, 1, c.sum);
    const BrsResult reference = ReferenceBrs(one.ptrs, weight, options);
    ASSERT_EQ(reference.rules.size(), options.k) << c.name;
    EXPECT_EQ(reference.rules[0].rule.size(), c.max_rule_size) << c.name;
    for (size_t shards : {size_t{1}, size_t{2}}) {
      Shards layout(c.table, shards, c.sum);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        const std::string label = c.name + " shards=" +
                                  std::to_string(shards) +
                                  " threads=" + std::to_string(threads);
        options.num_threads = threads;
        auto got = RunBrs(layout.ptrs, weight, options);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
        ExpectBitIdentical(*got, reference, label);
      }
    }
  }
}

TEST(CoverMemoTest, WinnersPastTheStoreByteCapMatchFreshFinders) {
  // Count under Size, in the exact regime, on a table that fills the cover
  // store's 64 MB = 2^23 words before any arity-4 rule is counted, so the
  // store keeps none of the arity-4 winners and a later step rebuilds
  // their rows. 120,000 rows make a bitset 1,875 words, the form of every
  // cover of 469 rows or more, so 2^23 words hold 4,473 covers. 18 binary
  // columns give 4 * C(18, 2) + 8 * C(18, 3) = 7,140 rules of arity 2 and
  // 3, each of about 1,400 rows or more (the fewest where the four
  // correlated columns disagree), so the store fills in pass 3. Exhaustive
  // pruning counts every rule with rows, and the four correlated columns
  // make arity-4 rules win.
  const Table table =
      CorrelatedTable(120000, 4, std::vector<uint32_t>(14, 2), 283);
  SizeWeight weight;
  BrsOptions options;
  options.k = 3;
  options.pruning = PruningMode::kExhaustive;
  options.max_rule_size = 4;
  options.num_threads = 1;
  Shards one(table, 1, false);
  const BrsResult reference = ReferenceBrs(one.ptrs, weight, options);
  ASSERT_EQ(reference.rules.size(), options.k);
  EXPECT_EQ(reference.rules[0].rule.size(), 4u);
  for (size_t shards : {size_t{1}, size_t{2}}) {
    Shards layout(table, shards, false);
    const std::string label = "shards=" + std::to_string(shards) +
                              " threads=" + std::to_string(2 * shards);
    options.num_threads = 2 * shards;
    auto got = RunBrs(layout.ptrs, weight, options);
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    ExpectBitIdentical(*got, reference, label);
  }
}

TEST(CoverMemoTest, RepeatedFindOnOneFinderMatchesFreshFinders) {
  // Direct finder use: the second and later Find calls on one finder
  // apply the previous pick's covered-weight update themselves and count
  // from the store. Each must agree with a fresh finder started from the
  // test's own covered weights, which the test raises itself.
  const Table table = GridTable();
  TableView view(table);
  view.SelectMeasure(0);
  SizeWeight weight;
  MarginalSearchOptions options;
  options.max_weight = 5;
  options.num_threads = 1;
  MarginalRuleFinder shared({&view}, weight, options);
  std::vector<double> covered(view.num_rows(), 0.0);
  for (int step = 0; step < 4; ++step) {
    auto got = shared.Find();
    MarginalRuleFinder fresh({&view}, weight, options, covered);
    auto want = fresh.Find();
    ASSERT_TRUE(got.ok() && want.ok()) << step;
    EXPECT_EQ(got->rule, want->rule) << step;
    EXPECT_EQ(got->weight, want->weight) << step;
    EXPECT_EQ(got->mass, want->mass) << step;
    EXPECT_EQ(got->marginal, want->marginal) << step;
    EXPECT_LE(shared.stats().candidates_counted,
              fresh.stats().candidates_counted)
        << step;
    if (step > 0) {
      EXPECT_LT(shared.stats().candidates_counted,
                fresh.stats().candidates_counted)
          << step;
      EXPECT_GT(shared.stats().candidates_stale_skipped, 0u) << step;
    }
    if (step > 0) {
      EXPECT_LT(shared.stats().tuple_visits, fresh.stats().tuple_visits)
          << step;
    }
    for (uint64_t t = 0; t < view.num_rows(); ++t) {
      if (RuleCoversRow(got->rule, view, t)) {
        covered[t] = std::max(covered[t], got->weight);
      }
    }
  }
}

}  // namespace
}  // namespace smartdd
