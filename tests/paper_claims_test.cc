// Fast checks of the paper's claims on the Marketing-like table (7 columns,
// Size weighting, k = 4), the setting of bench_ablation_pruning:
//  - §5.1: smart drill-down scores strictly higher than the best
//    single-column traditional drill-down (14560 against 9409);
//  - §3.5: Algorithm 2's pruning counts strictly fewer candidates than the
//    unpruned a-priori search at every mw the ablation runs;
//  - Figure 5, as a counter rather than a timing: the pruned search counts
//    no fewer candidates as mw grows;
//  - Figure 2: a star expansion on Education under the Female rule shows
//    the four most frequent education levels among females;
//  - Figure 3: expanding a rule of the first summary shows super-rules of
//    it, each adding detail on further columns.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/baseline.h"
#include "core/brs.h"
#include "core/score.h"
#include "data/marketing_gen.h"
#include "explore/engine.h"
#include "explore/session.h"
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

/// An exploration session over the Marketing table at k = 4 and mw = 5,
/// the figures' setting, and the engine it runs on.
struct FigureSession {
  SizeWeight weight;
  std::unique_ptr<ExplorationEngine> engine;
  std::optional<ExplorationSession> session;

  FigureSession() {
    auto created = ExplorationEngine::Create(Marketing7(), weight);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    engine = std::move(created).value();
    SessionOptions options;
    options.k = kK;
    options.max_weight = 5;
    auto opened = engine->NewSession(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    session.emplace(std::move(opened).value());
  }
};

/// Whether `rule` instantiates every column `base` does, with its values.
bool Extends(const Rule& rule, const Rule& base) {
  for (size_t c = 0; c < base.num_columns(); ++c) {
    if (base.is_star(c)) continue;
    if (rule.is_star(c) || rule.value(c) != base.value(c)) return false;
  }
  return true;
}

TEST(PaperClaimsTest, Figure2StarExpandsEducationWithinFemale) {
  FigureSession fs;
  ExplorationSession& session = *fs.session;
  const Table& table = Marketing7();
  const size_t sex = 1;
  const size_t education = 4;
  const auto female_code = table.dictionary(sex).Find("Female");
  ASSERT_TRUE(female_code.has_value());
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok()) << children.status().ToString();
  int female = -1;
  for (int id : *children) {
    const Rule& r = session.node(id).rule;
    if (r.size() == 1 && !r.is_star(sex) && r.value(sex) == *female_code) {
      female = id;
    }
  }
  ASSERT_GE(female, 0) << "the first summary lacks the Female rule";

  auto levels = session.ExpandStar(female, education);
  ASSERT_TRUE(levels.ok()) << levels.status().ToString();
  ASSERT_EQ(levels->size(), kK);
  double last = session.node(female).mass;
  for (int id : *levels) {
    const ExplorationNode& node = session.node(id);
    EXPECT_EQ(node.rule.size(), 2u);
    EXPECT_TRUE(Extends(node.rule, session.node(female).rule));
    EXPECT_FALSE(node.rule.is_star(education));
    EXPECT_LT(node.mass, last) << "counts must descend";
    last = node.mass;
  }
}

TEST(PaperClaimsTest, Figure3ExpandsTheThirdRuleIntoItsSuperRules) {
  FigureSession fs;
  ExplorationSession& session = *fs.session;
  auto children = session.Expand(session.root());
  ASSERT_TRUE(children.ok()) << children.status().ToString();
  ASSERT_GE(children->size(), 3u);
  const int third = (*children)[2];
  const Rule clicked = session.node(third).rule;
  auto expansion = session.Expand(third);
  ASSERT_TRUE(expansion.ok()) << expansion.status().ToString();
  ASSERT_EQ(expansion->size(), kK);
  // Children are listed by weight, so their counts need not descend
  // (1549, 1089, 2223, 345); the counts each adds to the list above it,
  // the marginal counts, do (1549, 1089, 674, 345).
  double last = session.node(third).mass;
  for (int id : *expansion) {
    const ExplorationNode& node = session.node(id);
    EXPECT_TRUE(Extends(node.rule, clicked));
    EXPECT_GT(node.rule.size(), clicked.size());
    EXPECT_LE(node.mass, session.node(third).mass);
    EXPECT_LT(node.marginal_mass, last) << "marginal counts must descend";
    last = node.marginal_mass;
  }
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
  size_t last_pruned = 0;
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
    EXPECT_GE(counted[0], last_pruned) << "mw=" << mw;
    last_pruned = counted[0];
  }
}

}  // namespace
}  // namespace smartdd
