// Tailoring "interesting" (paper §2.2 / §6.1): the same first drill-down on
// the Marketing table under five different weighting functions, plus the
// sample-based mw estimation of §6.1.

#include <cstdio>

#include "core/brs.h"
#include "core/mw_estimator.h"
#include "data/marketing_gen.h"
#include "storage/column_stats.h"
#include "explore/renderer.h"
#include "weights/parametric_weight.h"
#include "weights/standard_weights.h"

namespace {

using namespace smartdd;

void Show(const char* title, const Table& table, const WeightFunction& w,
          double mw) {
  TableView view(table);
  BrsOptions options;
  options.k = 4;
  options.max_weight = mw;
  auto result = RunBrs({&view}, w, options);
  std::printf("\n--- %s (mw=%.0f) ---\n", title, mw);
  if (!result.ok()) {
    std::printf("failed: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s", RenderRuleList(table, result->rules).c_str());
  std::printf("score: %.0f\n", result->total_score);
}

}  // namespace

int main() {
  MarketingSpec spec;
  spec.columns = 7;
  Table table = GenerateMarketingTable(spec);

  // 1. Size: weight = number of instantiated columns (the default).
  SizeWeight size;
  Show("Size weighting", table, size, 5);

  // 2. Bits: columns with more distinct values weigh more.
  BitsWeight bits = BitsWeight::FromTable(table);
  Show("Bits weighting", table, bits, 20);

  // 3. max(0, Size-1): forbids single-column rules.
  SizeMinusOneWeight size_minus_one;
  Show("Size-minus-one weighting", table, size_minus_one, 5);

  // 4. Column preference: the analyst cares about Occupation (column 5)
  //    and is indifferent to Sex (column 1) — expressed as per-column
  //    weights (paper §2.2: "expressing a higher preference for a column").
  LinearColumnWeight preference({1, 0, 1, 1, 1, 3, 1}, "PreferOccupation");
  Show("Occupation-preferring weighting", table, preference, 8);

  // 5. Parametric family (W = (sum w_c)^alpha) with alpha tuned via §6.1 to
  //    make the top rule instantiate about half the columns.
  std::vector<double> freq;
  TableView view(table);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    freq.push_back(ComputeColumnStats(view, c).max_frequency_fraction);
  }
  double alpha = AlphaForInstantiationFraction(0.5, freq);
  ParametricWeight parametric(std::vector<double>(7, 1.0), alpha);
  std::printf("\n(§6.1 analysis chose alpha=%.2f for a ~50%% instantiation "
              "fraction)\n", alpha);
  Show("Parametric weighting", table, parametric,
       parametric.MaxPossibleWeight(7));

  // mw estimation (§6.1): estimate from a sample instead of guessing.
  auto est = EstimateMaxWeight(view, bits, 4, 1000, 42);
  if (est.ok()) {
    std::printf("\nSample-estimated mw for Bits: observed max %.0f -> "
                "mw = %.0f (vs worst case %.0f)\n",
                est->observed_max_weight, est->mw,
                bits.MaxPossibleWeight(table.num_columns()));
  }
  return 0;
}
