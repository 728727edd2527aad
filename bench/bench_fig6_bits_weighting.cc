// Figure 6: the first summary under the Bits weighting function (mw=20).
// Compared with Figure 1, the rules shift away from the 1-bit Sex column
// toward columns with more distinct values.

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
  BitsWeight weight = BitsWeight::FromTable(table);

  PrintExperimentHeader(
      "Figure 6", "first summary under Bits weighting (k=4, mw=20)",
      "no rule spends its budget on the binary Sex column alone; rules "
      "favour MaritalStatus / TimeInBayArea / Occupation-style columns");

  std::printf("bits per column:");
  for (size_t c = 0; c < table.num_columns(); ++c) {
    std::printf(" %s=%.0f", table.schema().name(c).c_str(),
                weight.bits_per_column()[c]);
  }
  std::printf("\n\n");

  BrsOptions options;
  options.num_threads = smartdd::bench::Flags().threads;
  options.k = 4;
  options.max_weight = 20;
  auto result = RunBrs({&view}, weight, options);
  if (!result.ok()) {
    std::fprintf(stderr, "BRS failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", RenderRuleList(table, result->rules).c_str());
  std::printf("\ntotal score: %.0f\n", result->total_score);
  return 0;
}
