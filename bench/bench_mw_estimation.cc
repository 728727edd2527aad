// §6.1: sample-based estimation of the mw parameter ("run BRS on a small
// sample, set mw to twice the heaviest selected weight"). Reports the
// estimate, whether it covered the true requirement, and the speedup of
// running BRS at the estimated mw instead of the worst-case cap.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/mw_estimator.h"
#include "weights/standard_weights.h"

namespace {

using namespace smartdd;
using namespace smartdd::bench;

void RunCase(const std::string& name, const TableView& view,
             const WeightFunction& weight) {
  WallTimer timer;
  auto est = EstimateMaxWeight(view, weight, /*k=*/4, /*sample_rows=*/1000,
                               /*seed=*/5);
  SMARTDD_CHECK(est.ok());
  double estimate_ms = timer.ElapsedMillis();

  // Reference: BRS with the worst-case cap.
  BrsOptions worst;
  worst.num_threads = smartdd::bench::Flags().threads;
  worst.k = 4;
  timer.Restart();
  auto full = RunBrs({&view}, weight, worst);
  SMARTDD_CHECK(full.ok());
  double worst_ms = timer.ElapsedMillis();
  double true_max = 0;
  for (const auto& r : full->rules) true_max = std::max(true_max, r.weight);

  BrsOptions capped;
  capped.num_threads = smartdd::bench::Flags().threads;
  capped.k = 4;
  capped.max_weight = est->mw;
  timer.Restart();
  auto capped_result = RunBrs({&view}, weight, capped);
  SMARTDD_CHECK(capped_result.ok());
  double capped_ms = timer.ElapsedMillis();

  std::printf(
      "%-16s observed=%.0f -> mw=%.0f (true max %.0f, %s) "
      "| estimate %.1fms, BRS@mw %.1fms vs BRS@cap %.1fms | score %.0f vs "
      "%.0f\n",
      name.c_str(), est->observed_max_weight, est->mw, true_max,
      est->mw >= true_max ? "covers" : "MISSES", estimate_ms, capped_ms,
      worst_ms, capped_result->total_score, full->total_score);
}

}  // namespace

int main(int argc, char** argv) {
  smartdd::bench::ParseFlags(argc, argv);
  PrintExperimentHeader(
      "mw estimation (§6.1)", "sample-estimated mw vs worst-case cap",
      "the 2x-sample estimate covers the true max selected weight, and BRS "
      "at the estimated mw matches the unbounded score at lower cost");

  const Table& marketing = Marketing7();
  TableView view(marketing);
  SizeWeight size_weight;
  BitsWeight bits_weight = BitsWeight::FromTable(marketing);
  RunCase("Marketing/Size", view, size_weight);
  RunCase("Marketing/Bits", view, bits_weight);

  const Table& full = Marketing14();
  TableView view14(full);
  BitsWeight bits14 = BitsWeight::FromTable(full);
  RunCase("Mkt14/Size", view14, size_weight);
  RunCase("Mkt14/Bits", view14, bits14);
  return 0;
}
