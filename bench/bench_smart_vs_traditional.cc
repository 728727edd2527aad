// §5.1 claim: "smart drill-down returns considerably better results" than
// traditional drill-down. Metric: Score (Definition 2, Size weighting) of
// the k rules each approach displays after one interaction on Marketing.
// Traditional drill-down on column c displays its top-k values as size-1
// rules; smart drill-down may mix columns and sizes.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/baseline.h"
#include "core/score.h"
#include "weights/standard_weights.h"

int main(int argc, char** argv) {
  smartdd::bench::ParseFlags(argc, argv);
  using namespace smartdd;
  using namespace smartdd::bench;

  const Table& table = Marketing7();
  TableView view(table);
  SizeWeight weight;
  const size_t k = 4;

  PrintExperimentHeader(
      "Section 5.1",
      "Score of smart drill-down vs traditional drill-down (k=4, Size)",
      "smart drill-down scores strictly higher than the best single-column "
      "traditional drill-down");

  // Traditional drill-down on each column: top-k values as rules.
  double best_traditional = 0;
  std::string best_column;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    auto groups = TraditionalDrillDown(view, c);
    std::vector<Rule> rules;
    for (size_t i = 0; i < groups.size() && i < k; ++i) {
      Rule r(table.num_columns());
      r.set_value(c, groups[i].first);
      rules.push_back(r);
    }
    double score = ScoreRuleSet(view, rules, weight);
    std::printf("traditional drill-down on %-16s score=%.0f\n",
                table.schema().name(c).c_str(), score);
    if (score > best_traditional) {
      best_traditional = score;
      best_column = table.schema().name(c);
    }
  }

  BrsOptions options;
  options.num_threads = smartdd::bench::Flags().threads;
  options.k = k;
  options.max_weight = 5;
  auto smart = RunBrs({&view}, weight, options);
  if (!smart.ok()) return 1;
  std::printf("\nsmart drill-down                  score=%.0f\n",
              smart->total_score);
  std::printf("best traditional (%s)        score=%.0f\n",
              best_column.c_str(), best_traditional);
  std::printf("improvement: %.1f%%\n",
              100.0 * (smart->total_score - best_traditional) /
                  best_traditional);
  return smart->total_score > best_traditional ? 0 : 1;
}
