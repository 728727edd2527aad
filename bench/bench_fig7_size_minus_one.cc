// Figure 7: the first summary under W(r) = max(0, Size(r)-1): single-column
// rules get weight 0, so every displayed rule instantiates >= 2 columns.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/brs.h"
#include "explore/renderer.h"
#include "weights/standard_weights.h"

int main(int argc, char** argv) {
  smartdd::bench::ParseFlags(argc, argv);
  using namespace smartdd;
  using namespace smartdd::bench;

  const Table& table = Marketing7();
  TableView view(table);
  SizeMinusOneWeight weight;

  PrintExperimentHeader(
      "Figure 7", "first summary under max(0, Size-1) weighting (k=4, mw=5)",
      "every displayed rule has 2 or 3 instantiated columns (no bare "
      "male/female-count rules, unlike Figure 1)");

  BrsOptions options;
  options.num_threads = smartdd::bench::Flags().threads;
  options.k = 4;
  options.max_weight = 5;
  auto result = RunBrs({&view}, weight, options);
  if (!result.ok()) {
    std::fprintf(stderr, "BRS failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", RenderRuleList(table, result->rules).c_str());

  bool all_multi = true;
  for (const auto& sr : result->rules) all_multi &= (sr.rule.size() >= 2);
  std::printf("\nall rules have size >= 2: %s\n", all_multi ? "YES" : "NO");
  return all_multi ? 0 : 1;
}
