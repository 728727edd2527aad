// Exploring a table that lives on disk: generates a census-like DiskTable
// (row count via SMARTDD_CENSUS_ROWS, default 200k), then explores it with
// the sampling stack of paper §4 — showing how Find/Combine/Create and
// pre-fetching keep interactions off the disk.

#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "data/census_gen.h"
#include "explore/engine.h"
#include "explore/renderer.h"
#include "explore/session.h"
#include "storage/disk_table.h"
#include "weights/standard_weights.h"

int main() {
  using namespace smartdd;

  uint64_t rows = 200000;
  if (const char* env = std::getenv("SMARTDD_CENSUS_ROWS")) {
    rows = std::strtoull(env, nullptr, 10);
  }
  CensusSpec spec;
  spec.rows = rows;
  spec.columns_used = 12;
  const char* tmp = std::getenv("TMPDIR");
  std::string path =
      std::string(tmp ? tmp : "/tmp") + "/smartdd_census_example.sddt";

  std::printf("Generating %llu-row census table on disk at %s ...\n",
              static_cast<unsigned long long>(rows), path.c_str());
  WallTimer timer;
  if (Status s = GenerateCensusDiskTable(spec, path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("  generated in %.1f ms\n", timer.ElapsedMillis());

  auto disk = DiskTable::Open(path);
  if (!disk.ok()) return 1;
  DiskScanSource source(*disk);

  SizeWeight weight;
  EngineOptions engine_options;
  engine_options.use_sampling = true;
  engine_options.sampler.memory_capacity = 50000;
  engine_options.sampler.min_sample_size = 5000;
  auto engine = ExplorationEngine::Create(source, weight, engine_options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  SessionOptions options;
  options.k = 3;
  options.max_weight = 4;
  options.prefetch = true;
  auto session_or = (*engine)->NewSession(options);
  if (!session_or.ok()) {
    std::fprintf(stderr, "%s\n", session_or.status().ToString().c_str());
    return 1;
  }
  ExplorationSession& session = *session_or;

  timer.Restart();
  auto level1 = session.Expand(session.root());
  if (!level1.ok()) {
    std::fprintf(stderr, "%s\n", level1.status().ToString().c_str());
    return 1;
  }
  std::printf("\nFirst expansion took %.1f ms (includes the one disk pass "
              "that creates the sample)\n",
              timer.ElapsedMillis());
  RenderOptions ropts;
  ropts.show_confidence = true;
  std::printf("%s", RenderSession(session, ropts).c_str());

  // The prefetch pass ran in the background while the tree printed (the
  // user reading it); join it, and the next drill-down is served from
  // memory.
  if (!session.WaitForPrefetch().ok()) return 1;
  timer.Restart();
  auto level2 = session.Expand((*level1)[0]);
  double expand2_ms = timer.ElapsedMillis();
  if (level2.ok()) {
    std::printf("\nSecond expansion took %.1f ms (served from prefetched "
                "samples — no disk pass)\n",
                expand2_ms);
    std::printf("%s", RenderSession(session, ropts).c_str());
  }

  const SampleHandler* handler = session.sampler();
  std::printf("\nSampleHandler stats: scans=%llu prefetch_scans=%llu "
              "finds=%llu combines=%llu creates=%llu memory=%llu tuples\n",
              static_cast<unsigned long long>(handler->scans_performed()),
              static_cast<unsigned long long>(handler->prefetch_scans()),
              static_cast<unsigned long long>(handler->find_hits()),
              static_cast<unsigned long long>(handler->combine_hits()),
              static_cast<unsigned long long>(handler->creates()),
              static_cast<unsigned long long>(handler->memory_used()));

  // Replace the estimates with exact counts (one final pass).
  if (session.RefreshExactCounts().ok()) {
    std::printf("\nAfter exact-count refresh:\n%s",
                RenderSession(session).c_str());
  }
  std::remove(path.c_str());
  return 0;
}
