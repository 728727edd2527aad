// Stress configuration beyond the paper's setup: smart drill-down over the
// *full 68-column* census table (the paper restricts its experiments to 7
// columns). Exercises the posting-list candidate counting and the eager
// in-pass threshold pruning (DESIGN.md §5) that keep wide tables feasible,
// and reports the search statistics that explain the cost.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "data/census_gen.h"
#include "sampling/sample_handler.h"
#include "weights/standard_weights.h"

int main(int argc, char** argv) {
  smartdd::bench::ParseFlags(argc, argv);
  using namespace smartdd;
  using namespace smartdd::bench;

  PrintExperimentHeader(
      "Wide-census stress (extension)",
      "expand the empty rule on 68 columns (k=4, minSS=5000)",
      "not in the paper (its experiments use 7 columns); wide tables are "
      "feasible thanks to posting-list counting + eager threshold pruning — "
      "candidate counts below explain where time goes");

  CensusSpec spec;
  spec.rows = EnvU64("SMARTDD_CENSUS_ROWS", 200000);
  spec.columns_used = 68;
  const char* tmp = std::getenv("TMPDIR");
  std::string path = std::string(tmp ? tmp : "/tmp") + "/smartdd_wide.sddt";
  std::fprintf(stderr, "[bench] generating %llu x 68 census at %s\n",
               static_cast<unsigned long long>(spec.rows), path.c_str());
  if (Status s = GenerateCensusDiskTable(spec, path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto disk = DiskTable::Open(path);
  if (!disk.ok()) return 1;
  DiskScanSource source(*disk);
  SizeWeight weight;

  for (double mw : {2.0, 3.0, 4.0}) {
    SampleHandlerOptions options;
    options.memory_capacity = 50000;
    options.min_sample_size = 5000;
    options.seed = 3;
    SampleHandler handler(source, options);
    auto sample = handler.GetSampleFor(Rule::Trivial(68));
    if (!sample.ok()) return 1;
    TableView view(sample->table);
    BrsOptions brs;
    brs.num_threads = Flags().threads;
    brs.k = 4;
    brs.max_weight = mw;
    WallTimer timer;
    auto result = RunBrs({&view}, weight, brs);
    if (!result.ok()) return 1;
    PrintSeriesRow("WideCensus/Size", mw, timer.ElapsedMillis(), "mw",
                   "time_ms");
    std::printf("    generated=%zu counted=%zu pruned=%zu passes=%zu "
                "tuple_visits=%llu\n",
                result->stats.candidates_generated,
                result->stats.candidates_counted,
                result->stats.candidates_pruned, result->stats.passes,
                static_cast<unsigned long long>(result->stats.tuple_visits));
  }
  std::remove(path.c_str());
  return 0;
}
