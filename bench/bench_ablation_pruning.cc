// Ablation of the §3.5 pruning machinery: the full Algorithm 2 (upper-bound
// + threshold pruning) vs the unpruned a-priori search, across mw values.
// Reports wall time and candidates actually counted — the pruning is what
// keeps BRS interactive at higher mw.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "weights/standard_weights.h"

namespace {

using namespace smartdd;
using namespace smartdd::bench;

void RunMode(const std::string& name, const TableView& view,
             const WeightFunction& weight, double mw, PruningMode mode,
             uint64_t iters) {
  double total_ms = 0;
  MarginalSearchStats stats;
  for (uint64_t it = 0; it < iters; ++it) {
    BrsOptions options;
    options.num_threads = Flags().threads;
    options.k = 4;
    options.max_weight = mw;
    options.pruning = mode;
    WallTimer timer;
    auto result = RunBrs({&view}, weight, options);
    SMARTDD_CHECK(result.ok());
    total_ms += timer.ElapsedMillis();
    if (it == 0) stats = result->stats;
  }
  PrintSeriesRow(name, mw, total_ms / static_cast<double>(iters), "mw",
                 "time_ms");
  std::printf("    candidates: generated=%zu counted=%zu pruned=%zu "
              "passes=%zu\n",
              stats.candidates_generated, stats.candidates_counted,
              stats.candidates_pruned, stats.passes);
}

}  // namespace

int main(int argc, char** argv) {
  smartdd::bench::ParseFlags(argc, argv);
  const uint64_t iters = EnvU64("SMARTDD_BENCH_ITERS", 3);

  PrintExperimentHeader(
      "Ablation (§3.5)", "Algorithm 2 pruning on vs off (Marketing, k=4)",
      "with pruning, counted candidates and time grow slowly with mw; "
      "without pruning, the candidate space (and time) blows up");

  const Table& table = smartdd::bench::Marketing7();
  TableView view(table);
  SizeWeight size_weight;
  BitsWeight bits_weight = BitsWeight::FromTable(table);

  for (double mw : {2.0, 3.0, 5.0, 7.0}) {
    RunMode("Size/full-pruning", view, size_weight, mw, PruningMode::kFull,
            iters);
    RunMode("Size/no-pruning", view, size_weight, mw,
            PruningMode::kExhaustive, iters);
  }
  for (double mw : {8.0, 12.0, 20.0}) {
    RunMode("Bits/full-pruning", view, bits_weight, mw, PruningMode::kFull,
            iters);
    RunMode("Bits/no-pruning", view, bits_weight, mw,
            PruningMode::kExhaustive, iters);
  }
  return 0;
}
