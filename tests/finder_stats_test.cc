// Pins the marginal finder's search statistics. Every MarginalSearchStats
// figure except the merge wall time, and BRS's total score, are pure
// functions of the data, the weight and the options; a change to how the
// finder generates, prunes or counts candidates that keeps them all is one
// that does the same search. The constants below were computed by the
// finder as it stood when this suite was written; on a mismatch the failure
// prints the row as it now reads.
//
// Grid: Count and Sum aggregation, k = 1..4, over a root search, a
// drill-down (base rule plus its starred columns), a star drill-down
// (StarConstraintWeight on one starred column) and a binding mw (Size
// weight, mw = 3). Each runs on one view with one thread and on two shards
// with two threads, which must pin the same figures. A second grid pins a
// table whose value tuples overflow the 128-bit exact packing.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/brs.h"
#include "data/synth.h"
#include "rules/rule_ops.h"
#include "storage/shard_plan.h"
#include "weights/standard_weights.h"
#include "weights/star_constraint.h"

namespace smartdd {
namespace {

struct Pin {
  const char* name;  // case/aggregation/k
  size_t passes;
  size_t generated;
  size_t pruned;
  size_t counted;
  size_t stale;
  uint64_t tuple_visits;
  double total_score;
};

// clang-format off
const Pin kPins[] = {
    {"root/Count/k=1", 3, 538, 335, 203, 0, 205768, 3756},
    {"root/Count/k=2", 7, 1624, 936, 521, 167, 382252, 5750},
    {"root/Count/k=3", 11, 3219, 1831, 796, 592, 497159, 7107},
    {"root/Count/k=4", 15, 5076, 2810, 1034, 1232, 582999, 8238},
    {"root/Sum/k=1", 3, 538, 335, 203, 0, 205768, 185705.39881874016},
    {"root/Sum/k=2", 7, 1628, 937, 525, 166, 384181, 283102.09679838963},
    {"root/Sum/k=3", 11, 3123, 1755, 769, 599, 489647, 352476.29623621318},
    {"root/Sum/k=4", 15, 4970, 2729, 1028, 1213, 581471, 409343.53919549851},
    {"drilldown/Count/k=1", 2, 129, 68, 61, 0, 34258, 3274},
    {"drilldown/Count/k=2", 5, 507, 235, 241, 31, 103349, 4586},
    {"drilldown/Count/k=3", 8, 1030, 476, 351, 203, 135674, 5495},
    {"drilldown/Count/k=4", 11, 1639, 776, 402, 461, 151366, 6225},
    {"drilldown/Sum/k=1", 2, 129, 68, 61, 0, 34258, 164286.2033647802},
    {"drilldown/Sum/k=2", 5, 511, 238, 242, 31, 103554, 227402.70418969417},
    {"drilldown/Sum/k=3", 8, 1061, 505, 352, 204, 135708, 272735.09790837776},
    {"drilldown/Sum/k=4", 11, 1729, 833, 435, 461, 157114, 307167.04893635015},
    {"star/Count/k=1", 3, 267, 138, 129, 0, 62944, 1940},
    {"star/Count/k=2", 6, 832, 399, 311, 122, 108638, 2948},
    {"star/Count/k=3", 10, 1721, 782, 529, 410, 139020, 3542},
    {"star/Count/k=4", 14, 2610, 1165, 536, 909, 140349, 4128},
    {"star/Sum/k=1", 3, 267, 138, 129, 0, 62944, 95552.38747996006},
    {"star/Sum/k=2", 6, 804, 373, 309, 122, 108292, 146607.01135492386},
    {"star/Sum/k=3", 10, 1685, 746, 532, 407, 139400, 176858.31860270549},
    {"star/Sum/k=4", 14, 2570, 1123, 539, 908, 140729, 206077.53171397268},
    {"mw3/Count/k=1", 3, 230, 147, 83, 0, 104008, 3756},
    {"mw3/Count/k=2", 6, 686, 438, 191, 57, 214906, 5750},
    {"mw3/Count/k=3", 9, 1440, 916, 348, 176, 331277, 7107},
    {"mw3/Count/k=4", 12, 2230, 1321, 522, 387, 433569, 8238},
    {"mw3/Sum/k=1", 3, 230, 155, 75, 0, 93952, 185705.39881874016},
    {"mw3/Sum/k=2", 6, 709, 454, 207, 48, 226931, 283102.09679838963},
    {"mw3/Sum/k=3", 9, 1439, 914, 338, 187, 326034, 352476.29623621318},
    {"mw3/Sum/k=4", 12, 2188, 1295, 498, 395, 423193, 409343.53919549851},
};
// clang-format on

std::string PinRow(const std::string& name, const BrsResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %zu, %zu, %zu, %zu, %zu, %llu, %.17g},",
                name.c_str(), r.stats.passes, r.stats.candidates_generated,
                r.stats.candidates_pruned, r.stats.candidates_counted,
                r.stats.candidates_stale_skipped,
                static_cast<unsigned long long>(r.stats.tuple_visits),
                r.total_score);
  return buf;
}

const Pin* FindPin(const std::string& name) {
  for (const Pin& p : kPins) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

/// A 6-column table: enough columns and values for k = 4 to count rules of
/// arity 3 and 4 and to prune most generated candidates, and a non-integer
/// measure for Sum.
Table PinTable() {
  SynthSpec spec;
  spec.rows = 6000;
  spec.cardinalities = {5, 9, 3, 14, 6, 4};
  spec.zipf = {1.2, 0.8, 1.0, 1.1, 0.6, 1.4};
  spec.seed = 2029;
  spec.with_measure = true;
  return GenerateSyntheticTable(spec);
}

/// Row-contiguous shard slices of `table`, each gathered down to its cover
/// of `base` when `base` is not trivial, as SmartDrillDown does.
struct Views {
  std::vector<Table> slices;
  std::vector<Table> covers;
  std::vector<TableView> views;
  std::vector<const TableView*> ptrs;

  Views(const Table& table, size_t num_shards, bool sum, const Rule& base) {
    ShardPlan plan = ShardPlan::Make(table.num_rows(), num_shards);
    slices.reserve(num_shards);
    covers.reserve(num_shards);
    views.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      slices.push_back(
          table.SliceRows(plan.shard(s).begin, plan.shard(s).end));
      const Table* t = &slices.back();
      if (!base.is_trivial()) {
        std::optional<Table> cover = GatherCover(TableView(*t), base);
        if (cover) t = &covers.emplace_back(std::move(*cover));
      }
      views.emplace_back(*t);
      if (sum) views.back().SelectMeasure(0);
    }
    for (const TableView& v : views) ptrs.push_back(&v);
  }
};

enum class Case { kRoot, kDrillDown, kStar, kBindingMw };

const char* CaseName(Case c) {
  switch (c) {
    case Case::kRoot: return "root";
    case Case::kDrillDown: return "drilldown";
    case Case::kStar: return "star";
    case Case::kBindingMw: return "mw3";
  }
  return "?";
}

TEST(FinderStatsTest, StatsMatchPinnedFigures) {
  const Table table = PinTable();
  SizeWeight size;
  // Drill-down base: column 0's most frequent value (code 0 of a Zipf
  // column); the star drill-down constrains column 3 under that base.
  Rule drill_base(table.num_columns());
  drill_base.set_value(0, 0);
  const size_t star_col = 3;
  StarConstraintWeight star(size, star_col);

  for (Case c : {Case::kRoot, Case::kDrillDown, Case::kStar,
                 Case::kBindingMw}) {
    const bool drill = c == Case::kDrillDown || c == Case::kStar;
    const Rule base = drill ? drill_base : Rule(table.num_columns());
    const WeightFunction& weight =
        c == Case::kStar ? static_cast<const WeightFunction&>(star) : size;
    for (bool sum : {false, true}) {
      const Views one(table, 1, sum, base);
      const Views two(table, 2, sum, base);
      for (size_t k = 1; k <= 4; ++k) {
        const std::string name = std::string(CaseName(c)) + "/" +
                                 (sum ? "Sum" : "Count") + "/k=" +
                                 std::to_string(k);
        BrsOptions options;
        options.k = k;
        if (drill) {
          options.base_rule = base;
          for (size_t col = 0; col < table.num_columns(); ++col) {
            if (base.is_star(col)) options.allowed_columns.push_back(col);
          }
        }
        if (c == Case::kBindingMw) options.max_weight = 3;
        const Pin* pin = FindPin(name);
        for (const Views* views : {&one, &two}) {
          options.num_threads = views->ptrs.size();
          auto got = RunBrs(views->ptrs, weight, options);
          ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
          const std::string row = PinRow(name, *got);
          if (pin == nullptr) {
            ADD_FAILURE() << "no pin; now reads\n" << row;
            continue;
          }
          const std::string label =
              name + " shards=" + std::to_string(views->ptrs.size());
          EXPECT_EQ(got->stats.passes, pin->passes) << label << "\n" << row;
          EXPECT_EQ(got->stats.candidates_generated, pin->generated)
              << label << "\n" << row;
          EXPECT_EQ(got->stats.candidates_pruned, pin->pruned)
              << label << "\n" << row;
          EXPECT_EQ(got->stats.candidates_counted, pin->counted)
              << label << "\n" << row;
          EXPECT_EQ(got->stats.candidates_stale_skipped, pin->stale)
              << label << "\n" << row;
          EXPECT_EQ(got->stats.tuple_visits, pin->tuple_visits)
              << label << "\n" << row;
          // Exact: any drift in what was summed, or in what order, shows.
          EXPECT_EQ(got->total_score, pin->total_score)
              << label << "\n" << row;
        }
      }
    }
  }
}

// A table whose candidate tuples overflow the 128-bit exact packing: ten
// columns whose dictionaries hold 16385 values each (15 bits a code), so
// value tuples of arity 9 and 10 pack to a hash, and arity-10 candidates
// join arity-9 sub-rules that are hashed too. Only a few values occur: a
// few row patterns repeat, so rules on all ten columns are generated and
// counted.
Table WideCodeTable() {
  constexpr size_t kColumns = 10;
  constexpr uint32_t kDictValues = 16385;
  std::vector<std::string> names;
  for (size_t c = 0; c < kColumns; ++c) names.push_back("c" + std::to_string(c));
  Table table(names);
  for (size_t c = 0; c < kColumns; ++c) {
    for (uint32_t v = 0; v < kDictValues; ++v) {
      table.EncodeValue(c, "v" + std::to_string(v));
    }
  }
  // Pattern p repeats 60 - 15p times: on every column it holds a high code,
  // then a few columns drift to low codes row by row.
  std::vector<uint32_t> row(kColumns);
  for (uint32_t p = 0; p < 4; ++p) {
    for (uint32_t rep = 0; rep < 60 - 15 * p; ++rep) {
      for (size_t c = 0; c < kColumns; ++c) {
        row[c] = kDictValues - 1 - p * 7 - static_cast<uint32_t>(c);
      }
      if (rep % 3 == 0) row[(p + rep) % kColumns] = rep % 5;
      if (rep % 4 == 1) row[(3 * p + rep) % kColumns] = rep % 3;
      table.AppendRow(row);
    }
  }
  for (uint32_t i = 0; i < 120; ++i) {
    for (size_t c = 0; c < kColumns; ++c) {
      row[c] = (i * 7 + static_cast<uint32_t>(c) * 3) % 6;
    }
    table.AppendRow(row);
  }
  table.Freeze();
  return table;
}

// clang-format off
const Pin kWidePins[] = {
    {"wide/mw=default/k=1", 10, 50190, 42719, 7471, 0, 194319, 306},
    {"wide/mw=default/k=2", 20, 131230, 112982, 11975, 6273, 310485, 531},
    {"wide/mw=default/k=3", 30, 227580, 195797, 15929, 15854, 402867, 731},
    {"wide/mw=9.5/k=1", 9, 49620, 42203, 7407, 0, 192473, 306},
    {"wide/mw=9.5/k=2", 18, 129830, 111778, 11846, 6196, 307806, 531},
    {"wide/mw=9.5/k=3", 27, 225390, 193848, 15850, 15622, 400789, 711},
};
// clang-format on

TEST(FinderStatsTest, HashedPackerStatsMatchPinnedFigures) {
  const Table table = WideCodeTable();
  SizeWeight size;
  const Views one(table, 1, false, Rule(table.num_columns()));
  const Views two(table, 2, false, Rule(table.num_columns()));
  // The default mw, under which every Find counts candidates of all ten
  // arities (ten passes a step), and a binding one (9.5) that weighs every
  // arity-10 candidate out while arity 9 still packs to a hash.
  for (const char* mw : {"default", "9.5"}) {
    for (size_t k = 1; k <= 3; ++k) {
      const std::string name =
          std::string("wide/mw=") + mw + "/k=" + std::to_string(k);
      const Pin* pin = nullptr;
      for (const Pin& p : kWidePins) {
        if (name == p.name) pin = &p;
      }
      BrsOptions options;
      options.k = k;
      if (std::string(mw) != "default") options.max_weight = 9.5;
      for (const Views* views : {&one, &two}) {
        options.num_threads = views->ptrs.size();
        auto got = RunBrs(views->ptrs, size, options);
        ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
        const std::string row = PinRow(name, *got);
        if (pin == nullptr) {
          ADD_FAILURE() << "no pin; now reads\n" << row;
          continue;
        }
        const std::string label =
            name + " shards=" + std::to_string(views->ptrs.size());
        EXPECT_EQ(got->stats.passes, pin->passes) << label << "\n" << row;
        EXPECT_EQ(got->stats.candidates_generated, pin->generated)
            << label << "\n" << row;
        EXPECT_EQ(got->stats.candidates_pruned, pin->pruned)
            << label << "\n" << row;
        EXPECT_EQ(got->stats.candidates_counted, pin->counted)
            << label << "\n" << row;
        EXPECT_EQ(got->stats.candidates_stale_skipped, pin->stale)
            << label << "\n" << row;
        EXPECT_EQ(got->stats.tuple_visits, pin->tuple_visits)
            << label << "\n" << row;
        EXPECT_EQ(got->total_score, pin->total_score) << label << "\n" << row;
      }
    }
  }
}

}  // namespace
}  // namespace smartdd
