// Fast checks of two of the paper's claims on the Marketing-like table (7
// columns, Size weighting, k = 4), the setting of bench_smart_vs_traditional
// and bench_ablation_pruning:
//  - §5.1: smart drill-down scores strictly higher than the best
//    single-column traditional drill-down (the bench reads 14560 against
//    9409);
//  - §3.5: Algorithm 2's pruning counts strictly fewer candidates than the
//    unpruned a-priori search at every mw the ablation runs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/baseline.h"
#include "core/brs.h"
#include "core/score.h"
#include "data/marketing_gen.h"
#include "storage/table_view.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

constexpr size_t kK = 4;

const Table& Marketing7() {
  static const Table* table = [] {
    MarketingSpec spec;
    spec.columns = 7;
    return new Table(GenerateMarketingTable(spec));
  }();
  return *table;
}

TEST(PaperClaimsTest, SmartDrillDownBeatsBestTraditionalDrillDown) {
  const Table& table = Marketing7();
  TableView view(table);
  SizeWeight weight;
  // Traditional drill-down on column c displays its k largest values as
  // size-1 rules.
  double best_traditional = 0;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const auto groups = TraditionalDrillDown(view, c);
    std::vector<Rule> rules;
    for (size_t i = 0; i < groups.size() && i < kK; ++i) {
      Rule r(table.num_columns());
      r.set_value(c, groups[i].first);
      rules.push_back(r);
    }
    best_traditional =
        std::max(best_traditional, ScoreRuleSet(view, rules, weight));
  }
  BrsOptions options;
  options.k = kK;
  options.max_weight = 5;
  auto smart = RunBrs({&view}, weight, options);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  EXPECT_GT(best_traditional, 0);
  EXPECT_GT(smart->total_score, best_traditional);
}

TEST(PaperClaimsTest, PruningCountsFewerCandidatesThanExhaustiveSearch) {
  const Table& table = Marketing7();
  TableView view(table);
  SizeWeight weight;
  for (double mw : {2.0, 3.0, 5.0, 7.0}) {
    size_t counted[2] = {0, 0};
    const PruningMode modes[2] = {PruningMode::kFull,
                                  PruningMode::kExhaustive};
    for (size_t m = 0; m < 2; ++m) {
      BrsOptions options;
      options.k = kK;
      options.max_weight = mw;
      options.pruning = modes[m];
      auto result = RunBrs({&view}, weight, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      counted[m] = result->stats.candidates_counted;
    }
    EXPECT_LT(counted[0], counted[1]) << "mw=" << mw;
  }
}

}  // namespace
}  // namespace smartdd
