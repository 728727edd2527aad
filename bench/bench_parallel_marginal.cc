// Serial-vs-parallel best-marginal search on the census-at-scale workload.
//
// Measures RunBrs wall-clock at 1/2/4/8 threads (plus --threads=N if given)
// over the in-memory census table, verifies the returned rules are
// identical to the serial run (they must be bit-identical by construction),
// and emits machine-readable results to BENCH_parallel_marginal.json. Exits
// nonzero when results differ, when packing saves less than 2x the column
// bytes, or when an AVX2 host's pass-1 speedup is below 2x.
//
// Knobs: SMARTDD_CENSUS_ROWS (default 500000), SMARTDD_CENSUS_COLS (7),
//        SMARTDD_BENCH_K (2 greedy steps), SMARTDD_BENCH_REPS (3).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <thread>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/brs.h"
#include "data/census_gen.h"
#include "storage/shard_plan.h"
#include "weights/standard_weights.h"

namespace {

struct Measurement {
  size_t threads = 0;
  size_t shards = 1;
  double ms = 0;
  smartdd::BrsResult result;
};

/// Sets SMARTDD_KERNEL, the one scan-kernel selector, for its lifetime and
/// then restores the outer value or unsets it. The finder resolves the
/// variable once per Find, so the searches inside the scope run the named
/// path.
class ScopedKernel {
 public:
  explicit ScopedKernel(const char* kernel) {
    if (const char* outer = std::getenv("SMARTDD_KERNEL")) outer_ = outer;
    ::setenv("SMARTDD_KERNEL", kernel, 1);
  }
  ~ScopedKernel() {
    if (outer_) {
      ::setenv("SMARTDD_KERNEL", outer_->c_str(), 1);
    } else {
      ::unsetenv("SMARTDD_KERNEL");
    }
  }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  std::optional<std::string> outer_;
};

Measurement RunOnce(const smartdd::TableView& view,
                    const smartdd::WeightFunction& weight, size_t k,
                    size_t threads, uint64_t reps,
                    size_t max_rule_size =
                        std::numeric_limits<size_t>::max()) {
  smartdd::BrsOptions options;
  options.k = k;
  options.max_weight = 3;
  options.num_threads = threads;
  options.max_rule_size = max_rule_size;

  Measurement m;
  m.threads = threads;
  m.ms = std::numeric_limits<double>::infinity();
  for (uint64_t rep = 0; rep < reps; ++rep) {
    smartdd::WallTimer timer;
    auto result = smartdd::RunBrs({&view}, weight, options);
    double ms = timer.ElapsedMillis();
    SMARTDD_CHECK(result.ok()) << result.status().ToString();
    m.ms = std::min(m.ms, ms);  // best-of: least scheduler noise
    m.result = std::move(result).value();
  }
  return m;
}

Measurement RunOnceSharded(const smartdd::Table& table,
                           const smartdd::WeightFunction& weight, size_t k,
                           size_t shards, size_t threads, uint64_t reps) {
  smartdd::ShardPlan plan = smartdd::ShardPlan::Make(table.num_rows(), shards);
  std::vector<smartdd::Table> shard_tables;
  shard_tables.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shard_tables.push_back(
        table.SliceRows(plan.shard(s).begin, plan.shard(s).end));
  }
  std::vector<smartdd::TableView> views;
  views.reserve(shards);
  std::vector<const smartdd::TableView*> view_ptrs;
  for (const smartdd::Table& t : shard_tables) views.emplace_back(t);
  for (const smartdd::TableView& v : views) view_ptrs.push_back(&v);

  smartdd::BrsOptions options;
  options.k = k;
  options.max_weight = 3;
  options.num_threads = threads;

  Measurement m;
  m.threads = threads;
  m.shards = shards;
  m.ms = std::numeric_limits<double>::infinity();
  for (uint64_t rep = 0; rep < reps; ++rep) {
    smartdd::WallTimer timer;
    auto result = smartdd::RunBrs(view_ptrs, weight, options);
    double ms = timer.ElapsedMillis();
    SMARTDD_CHECK(result.ok()) << result.status().ToString();
    m.ms = std::min(m.ms, ms);
    m.result = std::move(result).value();
  }
  return m;
}

bool SameRules(const smartdd::BrsResult& a, const smartdd::BrsResult& b) {
  if (a.rules.size() != b.rules.size()) return false;
  for (size_t i = 0; i < a.rules.size(); ++i) {
    if (a.rules[i].rule != b.rules[i].rule) return false;
    if (a.rules[i].mass != b.rules[i].mass) return false;
    if (a.rules[i].marginal_value != b.rules[i].marginal_value) return false;
  }
  return a.total_score == b.total_score &&
         a.stats.candidates_counted == b.stats.candidates_counted &&
         a.stats.tuple_visits == b.stats.tuple_visits;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smartdd;
  using namespace smartdd::bench;
  ParseFlags(argc, argv);

  CensusSpec spec;
  spec.rows = EnvU64("SMARTDD_CENSUS_ROWS", 500000);
  spec.columns_used = EnvU64("SMARTDD_CENSUS_COLS", 7);
  const size_t k = EnvU64("SMARTDD_BENCH_K", 2);
  const uint64_t reps = EnvU64("SMARTDD_BENCH_REPS", 3);

  PrintExperimentHeader(
      "PAR-1", "parallel best-marginal search (census at scale)",
      "near-linear speedup of the counting passes up to the core count; "
      "identical rules at every thread count");
  std::fprintf(stderr, "[bench] generating census table (%llu x %zu)...\n",
               static_cast<unsigned long long>(spec.rows), spec.columns_used);
  Table table = GenerateCensusTable(spec);
  TableView view(table);
  SizeWeight weight;

  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  if (Flags().threads != 0 &&
      std::find(thread_counts.begin(), thread_counts.end(),
                Flags().threads) == thread_counts.end()) {
    thread_counts.push_back(Flags().threads);
  }

  std::vector<Measurement> runs;
  for (size_t threads : thread_counts) {
    runs.push_back(RunOnce(view, weight, k, threads, reps));
    const Measurement& m = runs.back();
    PrintSeriesRow("parallel_marginal", static_cast<double>(threads), m.ms,
                   "threads", "ms");
    PrintSeriesRow("speedup", static_cast<double>(threads),
                   runs.front().ms / m.ms, "threads", "x");
  }

  // The shard dimension: the same search scattered over row partitions must
  // return the same rules, byte for byte, at every shard count.
  std::vector<size_t> shard_counts = {1, 2, 4};
  if (Flags().shards != 0 &&
      std::find(shard_counts.begin(), shard_counts.end(), Flags().shards) ==
          shard_counts.end()) {
    shard_counts.push_back(Flags().shards);
  }
  std::vector<Measurement> shard_runs;
  for (size_t shards : shard_counts) {
    shard_runs.push_back(
        RunOnceSharded(table, weight, k, shards, Flags().threads, reps));
    PrintSeriesRow("sharded_marginal", static_cast<double>(shards),
                   shard_runs.back().ms, "shards", "ms");
  }

  // The kernel dimension: the same search on the scalar and (when the host
  // has it) AVX2 paths must return byte-identical rules; the paths differ
  // only in decode/compare vectorization, never in float accumulation order.
  const KernelPath resolved = ResolveKernelPath();
  std::vector<std::pair<std::string, Measurement>> kernel_runs;
  std::vector<const char*> kernels = {"scalar"};
  if (resolved == KernelPath::kAvx2) kernels.push_back("avx2");
  for (const char* kernel : kernels) {
    ScopedKernel scoped(kernel);
    kernel_runs.emplace_back(kernel, RunOnce(view, weight, k, 1, reps));
  }
  for (const auto& [name, m] : kernel_runs) {
    std::printf("kernel=%-6s ms=%.3f\n", name.c_str(), m.ms);
  }

  // Gate 1 (storage): packed columns must at least halve the resident
  // column bytes versus raw 4 B/code storage on this workload.
  const double packed_bytes =
      static_cast<double>(table.resident_column_bytes());
  const double unpacked_bytes =
      static_cast<double>(table.unpacked_column_bytes());
  const double bytes_ratio =
      packed_bytes > 0 ? unpacked_bytes / packed_bytes : 0;
  const bool bytes_gate = bytes_ratio >= 2.0;
  std::printf("column bytes: packed=%.0f unpacked=%.0f reduction=%.2fx %s\n",
              packed_bytes, unpacked_bytes, bytes_ratio,
              bytes_gate ? "(gate >=2x: PASS)" : "(gate >=2x: FAIL)");

  // Gate 2 (throughput): single-threaded pass-1 (k=1, size-1 rules only) on
  // census-200k — packed storage + the resolved SIMD path must be >= 2x the
  // unpacked scalar baseline. Hosts without AVX2 report the gate as skipped
  // rather than passed, and exit 0. The two sides run in alternating reps,
  // so host noise lands on both, and each side keeps its best of at least
  // kGatePairs reps whatever SMARTDD_BENCH_REPS says: one rep of a ~0.6 ms
  // side read from 1.9x to 7.9x across runs of one binary.
  constexpr uint64_t kGatePairs = 7;
  const bool has_avx2 = resolved == KernelPath::kAvx2;
  double pass1_speedup = 0;
  std::string pass1_gate = "skipped (no avx2)";
  {
    CensusSpec gate_spec = spec;
    gate_spec.rows = EnvU64("SMARTDD_GATE_ROWS", 200000);
    gate_spec.freeze = false;
    Table unpacked_table = GenerateCensusTable(gate_spec);
    gate_spec.freeze = true;
    Table packed_table = GenerateCensusTable(gate_spec);
    const TableView unpacked_view(unpacked_table);
    const TableView packed_view(packed_table);
    double base_ms = std::numeric_limits<double>::infinity();
    double fast_ms = base_ms;
    for (uint64_t pair = 0; pair < std::max(reps, kGatePairs); ++pair) {
      {
        ScopedKernel scalar("scalar");
        base_ms =
            std::min(base_ms, RunOnce(unpacked_view, weight, 1, 1, 1, 1).ms);
      }
      fast_ms = std::min(fast_ms, RunOnce(packed_view, weight, 1, 1, 1, 1).ms);
    }
    pass1_speedup = fast_ms > 0 ? base_ms / fast_ms : 0;
    if (has_avx2) pass1_gate = pass1_speedup >= 2.0 ? "pass" : "fail";
    std::printf(
        "pass-1 gate (census-%llu, k=1, size-1): unpacked+scalar=%.3fms "
        "packed+%s=%.3fms speedup=%.2fx -> %s\n",
        static_cast<unsigned long long>(gate_spec.rows), base_ms,
        KernelPathName(resolved), fast_ms, pass1_speedup, pass1_gate.c_str());
  }

  const Measurement& serial = runs.front();
  bool identical = true;
  for (const Measurement& m : runs) {
    identical &= SameRules(serial.result, m.result);
  }
  for (const Measurement& m : shard_runs) {
    identical &= SameRules(serial.result, m.result);
  }
  for (const auto& [name, m] : kernel_runs) {
    identical &= SameRules(serial.result, m.result);
  }
  std::printf(
      "identical results across thread, shard, and kernel dimensions: %s\n",
      identical ? "yes" : "NO (BUG)");
  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());

  std::string path = Flags().json_path.empty() ? "BENCH_parallel_marginal.json"
                                               : Flags().json_path;
  std::FILE* f = std::fopen(path.c_str(), "w");
  SMARTDD_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "{\n  \"workload\": \"census\",\n  \"rows\": %llu,\n"
               "  \"columns\": %zu,\n  \"k\": %zu,\n  \"reps\": %llu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"identical_results\": %s,\n  \"runs\": [\n",
               static_cast<unsigned long long>(spec.rows), spec.columns_used,
               k, static_cast<unsigned long long>(reps),
               std::thread::hardware_concurrency(),
               identical ? "true" : "false");
  for (size_t i = 0; i < runs.size(); ++i) {
    const Measurement& m = runs[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"ms\": %.3f, \"speedup\": %.3f, "
                 "\"tuple_visits\": %llu, \"candidates_counted\": %llu}%s\n",
                 m.threads, m.ms, serial.ms / m.ms,
                 static_cast<unsigned long long>(m.result.stats.tuple_visits),
                 static_cast<unsigned long long>(
                     m.result.stats.candidates_counted),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"shard_runs\": [\n");
  for (size_t i = 0; i < shard_runs.size(); ++i) {
    const Measurement& m = shard_runs[i];
    std::fprintf(f, "    {\"shards\": %zu, \"threads\": %zu, \"ms\": %.3f}%s\n",
                 m.shards, m.threads, m.ms,
                 i + 1 < shard_runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"kernel_runs\": [\n");
  for (size_t i = 0; i < kernel_runs.size(); ++i) {
    std::fprintf(f, "    {\"kernel\": \"%s\", \"ms\": %.3f}%s\n",
                 kernel_runs[i].first.c_str(), kernel_runs[i].second.ms,
                 i + 1 < kernel_runs.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"gates\": {\n"
               "    \"resolved_kernel\": \"%s\",\n"
               "    \"packed_column_bytes\": %.0f,\n"
               "    \"unpacked_column_bytes\": %.0f,\n"
               "    \"byte_reduction\": %.3f,\n"
               "    \"byte_reduction_gate\": \"%s\",\n"
               "    \"pass1_speedup\": %.3f,\n"
               "    \"pass1_speedup_gate\": \"%s\"\n  }\n}\n",
               KernelPathName(resolved), packed_bytes, unpacked_bytes,
               bytes_ratio, bytes_gate ? "pass" : "fail", pass1_speedup,
               pass1_gate.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  // Clear the flag so the generic atexit JSON sink does not overwrite the
  // structured report we just wrote.
  Flags().json_path.clear();
  // Every gate sets the exit code; a skipped pass-1 gate (no AVX2 path)
  // does not fail the run.
  const bool pass1_ok = pass1_gate != "fail";
  if (!bytes_gate) std::printf("FAIL: byte-reduction gate\n");
  if (!pass1_ok) std::printf("FAIL: pass-1 speedup gate\n");
  return identical && bytes_gate && pass1_ok ? 0 : 1;
}
