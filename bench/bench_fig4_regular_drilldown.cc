// Figure 4: a *regular* drill-down on the Age column, reproduced two ways:
// (a) as a plain group-by (the TraditionalDrillDown baseline) and
// (b) as the special case of smart drill-down (§5.1.2): indicator weight on
//     Age, k = |Age|. Both must agree.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/baseline.h"
#include "core/brs.h"
#include "explore/renderer.h"
#include "weights/standard_weights.h"

int main(int argc, char** argv) {
  smartdd::bench::ParseFlags(argc, argv);
  using namespace smartdd;
  using namespace smartdd::bench;

  const Table& table = Marketing7();
  TableView view(table);
  const size_t age_col = 3;

  PrintExperimentHeader(
      "Figure 4", "regular drill-down on Age as a smart drill-down special "
      "case (indicator weight, k = |Age|)",
      "one rule per Age bucket, counts descending; identical to a group-by");

  auto groups = TraditionalDrillDown(view, age_col);
  std::printf("\n-- group-by baseline --\n");
  for (const auto& [code, mass] : groups) {
    std::printf("  Age=%-8s count=%.0f\n",
                table.dictionary(age_col).ValueOf(code).c_str(), mass);
  }

  ColumnIndicatorWeight weight(age_col);
  BrsOptions options;
  options.num_threads = smartdd::bench::Flags().threads;
  options.k = table.dictionary(age_col).size();
  options.max_weight = 1.0;
  options.max_rule_size = 1;
  auto brs = RunBrs({&view}, weight, options);
  if (!brs.ok()) {
    std::fprintf(stderr, "BRS failed: %s\n", brs.status().ToString().c_str());
    return 1;
  }
  std::printf("\n-- smart drill-down emulation --\n%s",
              RenderRuleList(table, brs->rules).c_str());

  // Verify agreement.
  bool match = brs->rules.size() == groups.size();
  for (const auto& sr : brs->rules) {
    bool found = false;
    for (const auto& [code, mass] : groups) {
      if (!sr.rule.is_star(age_col) && sr.rule.value(age_col) == code &&
          sr.mass == mass) {
        found = true;
      }
    }
    match &= found;
  }
  std::printf("\nemulation matches group-by: %s\n", match ? "YES" : "NO");
  return match ? 0 : 1;
}
