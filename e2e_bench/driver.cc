// End-to-end benchmark driver: seeded analyst workloads against one
// in-process smartdd deployment.
//
//   e2e_driver --workload <explore|dashboard|sampled> --seed <n>
//              --seconds <s> --trace <0|1> [--part <n>] [--scratch <dir>]
//
// `--part` picks which stretch of the seed's session sequence the run
// drives, so several runs on one seed measure different sessions over the
// same data.
//
// Each workload runs a fixed number of closed-loop analyst clients with no
// think time: a client sends its next request when the previous reply has
// arrived. A run sets the service up several times (the last deployment
// serves), warms it, drives analyst sessions for `--seconds`, sets the
// service up several more times, then checks the answers it collected
// against the benchmark's own copy of the data. The last stdout line is one
// JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 every request goes through the HTTP adapter's handler
// (net::ExplorationHttpAdapter::Handle, in process, no sockets) and the
// metrics are the wall-clock latencies a client sees, the process's CPU
// time per request, and set-up time. With --trace 1 the same traffic goes
// through the codec surface with every request split at the layer
// boundaries it exposes (ParseRequest, Execute, EncodeResponse), and the
// service's own counters are read from its Prometheus rendering, giving
// per-layer figures instead.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/codec.h"
#include "api/service.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "explore/engine.h"
#include "net/exploration_http_adapter.h"
#include "storage/csv.h"
#include "storage/disk_table.h"
#include "weights/standard_weights.h"
#include "workload.h"

namespace {

using namespace smartdd;
using Clock = std::chrono::steady_clock;

constexpr const char* kDataset = "sales";
/// A set-up batch repeats set-up at least kMinSetupReps times and until
/// kSetupBudgetS of set-up time has passed, at most kMaxSetupReps times.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 15;
constexpr double kSetupBudgetS = 0.3;
/// Responses kept for the brute-force check after the measured window.
constexpr size_t kMaxVerified = 48;

double Since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// CPU seconds this process has run, on all its threads.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

enum class Kind { kExact, kLive, kSampled };

/// One workload: how the dataset is served and what the analysts do.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  /// Rows loaded at set-up (the live table's base).
  size_t rows;
  /// Cross-session expansion cache on (the service default) or off.
  bool cache;
  /// Shards of an in-memory table; the service default is 1.
  size_t shards;
  /// Concurrent closed-loop analyst clients.
  size_t clients;
  /// When > 0, every session follows one of this many analyst paths, drawn
  /// Zipf(1)-skewed, so popular expansions repeat across sessions.
  /// 0 = every session takes a fresh path.
  size_t paths;
  /// Live tables: rows a client appends before each of its sessions.
  size_t appends_per_session;
  e2e::SessionShape shape;
};

// `explore` is one analyst paying the cold search on every expansion, with
// the table split over two shards so each expansion also merges shard
// results. `dashboard` runs the service as shipped (cache on, one shard,
// snapshot every 256 rows, WAL synced every record); it takes its client
// count from bench_concurrent_sessions (4 of its 1/4/16 sessions) and its
// repeat skew from bench_expansion_cache (Zipf(1) over 16 keys).
const WorkloadSpec kWorkloads[] = {
    {"explore", Kind::kExact, 20000, false, 2, 1, 0, 0, {3, false}},
    {"dashboard", Kind::kLive, 20000, true, 1, 4, 16, 8, {2, false}},
    {"sampled", Kind::kSampled, 100000, true, 1, 1, 0, 0, {3, true}},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t part = 0;
  std::string scratch = ".bench_build/e2e-scratch";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::string_view(value) == "1";
    } else if (flag == "--part") {
      args->part = std::strtoull(value, nullptr, 10);
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// The system under test, set up from the generated CSV bytes. Members are
/// torn down front to back: each borrows what is declared above it.
struct Deployment {
  SizeWeight weight;
  Table table;
  std::unique_ptr<DiskScanSource> source;
  std::unique_ptr<ExplorationEngine> engine;
  std::unique_ptr<api::ExplorationService> service;
  std::unique_ptr<net::ExplorationHttpAdapter> http;

  ~Deployment() {
    http.reset();
    service.reset();
    engine.reset();
  }
};

struct SetupTimes {
  double load_s = 0;      ///< CSV parse and column packing
  double register_s = 0;  ///< dataset registration (engines, WAL, disk file)
};

std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec,
                                   const std::string& csv,
                                   const std::string& scratch, uint64_t seed,
                                   int rep, SetupTimes* times) {
  auto d = std::make_unique<Deployment>();
  const Clock::time_point start = Clock::now();
  CsvOptions csv_options;
  csv_options.measure_columns = {"amount"};
  Result<Table> loaded = ReadCsvString(csv, csv_options);
  SMARTDD_CHECK(loaded.ok()) << loaded.status().ToString();
  const Clock::time_point loaded_at = Clock::now();

  api::ServiceOptions options;
  options.token_seed = e2e::MixSeed(seed, static_cast<uint64_t>(rep)) | 1;
  options.num_shards = spec.shards;
  if (!spec.cache) options.cache_max_bytes = 0;
  d->service = std::make_unique<api::ExplorationService>(options);

  const std::string prefix = scratch + "/rep" + std::to_string(rep);
  Status status;
  switch (spec.kind) {
    case Kind::kExact:
      d->table = std::move(loaded).value();
      status = d->service->AddShardedTable(kDataset, d->table, d->weight);
      break;
    case Kind::kLive:
      std::filesystem::remove(prefix + ".wal");
      status = d->service->AddLiveTable(kDataset, std::move(loaded).value(),
                                        d->weight, prefix + ".wal");
      break;
    case Kind::kSampled: {
      const std::string path = prefix + ".sddt";
      status = DiskTable::Write(*loaded, path);
      if (!status.ok()) break;
      Result<std::shared_ptr<DiskTable>> disk = DiskTable::Open(path);
      SMARTDD_CHECK(disk.ok()) << disk.status().ToString();
      d->source = std::make_unique<DiskScanSource>(std::move(disk).value());
      EngineOptions engine_options;
      engine_options.use_sampling = true;
      engine_options.num_threads = 1;
      engine_options.sampler.memory_capacity = 24000;
      engine_options.sampler.min_sample_size = 3000;
      engine_options.sampler.seed = seed;
      engine_options.sampler.num_threads = 1;
      auto engine =
          ExplorationEngine::Create(*d->source, d->weight, engine_options);
      SMARTDD_CHECK(engine.ok()) << engine.status().ToString();
      d->engine = std::move(engine).value();
      status = d->service->AddEngine(kDataset, d->engine.get());
      break;
    }
  }
  SMARTDD_CHECK(status.ok()) << status.ToString();
  d->http = std::make_unique<net::ExplorationHttpAdapter>(d->service.get());
  times->load_s = Since(start, loaded_at);
  times->register_s = Since(loaded_at, Clock::now());
  return d;
}

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) / values.size();
}

/// Sum of every sample of `family` (all label sets) in a Prometheus text
/// rendering, so the figure survives changes to how series are labelled.
double PromSum(const std::string& text, std::string_view family) {
  double total = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#' || line.rfind(family, 0) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : 0;
    if (next != '{' && next != ' ') continue;
    size_t space = line.rfind(' ');
    total += std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return total;
}

/// Service counters, read around the measured window.
struct Counters {
  double cache_hits = 0;
  double cache_misses = 0;
  double singleflight_waits = 0;
  double shard_scans = 0;
  double sampler_finds = 0;
  double sampler_combines = 0;
  double sampler_creates = 0;

  static Counters Read(const SampleHandler* sampler) {
    const std::string text = MetricsRegistry::Default().RenderPrometheus();
    Counters c;
    c.cache_hits = PromSum(text, "smartdd_expansion_cache_hits_total");
    c.cache_misses = PromSum(text, "smartdd_expansion_cache_misses_total");
    c.singleflight_waits =
        PromSum(text, "smartdd_expansion_cache_singleflight_waits_total");
    c.shard_scans = PromSum(text, "smartdd_shard_scan_passes_total");
    if (sampler != nullptr) {
      c.sampler_finds = static_cast<double>(sampler->find_hits());
      c.sampler_combines = static_cast<double>(sampler->combine_hits());
      c.sampler_creates = static_cast<double>(sampler->creates());
    }
    return c;
  }

  /// `end - start`, counter by counter.
  static Counters Delta(const Counters& start, const Counters& end) {
    Counters d;
    d.cache_hits = end.cache_hits - start.cache_hits;
    d.cache_misses = end.cache_misses - start.cache_misses;
    d.singleflight_waits = end.singleflight_waits - start.singleflight_waits;
    d.shard_scans = end.shard_scans - start.shard_scans;
    d.sampler_finds = end.sampler_finds - start.sampler_finds;
    d.sampler_combines = end.sampler_combines - start.sampler_combines;
    d.sampler_creates = end.sampler_creates - start.sampler_creates;
    return d;
  }
};

bool IsDrill(std::string_view line) {
  return line.rfind("expand ", 0) == 0 || line.rfind("star ", 0) == 0;
}

/// The first expansion of a session: `expand <token> 0`.
bool IsRootExpand(std::string_view line) {
  return line.rfind("expand ", 0) == 0 && line.size() > 2 &&
         line.substr(line.size() - 2) == " 0";
}

/// The HTTP route serving codec verb `verb`.
const char* RouteFor(std::string_view verb) {
  static constexpr std::pair<const char*, const char*> kRoutes[] = {
      {"open", "/v1/open"},         {"expand", "/v1/expand"},
      {"star", "/v1/expandstar"},   {"collapse", "/v1/collapse"},
      {"show", "/v1/tree"},         {"exact", "/v1/exact"},
      {"close", "/v1/close"},       {"append", "/v1/append"},
  };
  for (const auto& [v, path] : kRoutes) {
    if (verb == v) return path;
  }
  return nullptr;
}

/// What one client recorded while `recording` was set.
struct Stats {
  uint64_t requests = 0;
  double response_bytes = 0;
  std::vector<double> drill_ms, root_expand_ms;  ///< wall time
  std::vector<double> parse_us, execute_us, encode_us;
  std::vector<double> drill_execute_us;

  void Merge(const Stats& o) {
    requests += o.requests;
    response_bytes += o.response_bytes;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(drill_ms, o.drill_ms);
    append(root_expand_ms, o.root_expand_ms);
    append(parse_us, o.parse_us);
    append(execute_us, o.execute_us);
    append(encode_us, o.encode_us);
    append(drill_execute_us, o.drill_execute_us);
  }
};

/// Sends codec request lines and times them. Untraced: one HTTP request per
/// line through the adapter's handler. Traced: the three steps
/// ExplorationService::ServeLine takes, timed apart.
class Client {
 public:
  Client(Deployment* deployment, bool trace)
      : deployment_(deployment), trace_(trace) {}

  std::string Call(const std::string& line) {
    const Clock::time_point start = Clock::now();
    std::string response;
    double parse_s = 0, execute_s = 0, encode_s = 0;
    if (!trace_) {
      const size_t space = line.find(' ');
      net::HttpRequest request;
      request.method = "POST";
      const char* route = RouteFor(std::string_view(line).substr(0, space));
      SMARTDD_CHECK(route != nullptr) << line;
      request.path = request.target = route;
      if (space != std::string::npos) request.body = line.substr(space + 1);
      response = deployment_->http->Handle(request, nullptr).body;
    } else {
      Result<api::Request> request = api::ParseRequest(line);
      const Clock::time_point parsed = Clock::now();
      api::Response reply;
      if (request.ok()) {
        reply = deployment_->service->Execute(*request);
      } else {
        reply.status = request.status();
      }
      const Clock::time_point executed = Clock::now();
      response = api::EncodeResponse(reply);
      const Clock::time_point encoded = Clock::now();
      parse_s = Since(start, parsed);
      execute_s = Since(parsed, executed);
      encode_s = Since(executed, encoded);
    }
    const double total_ms = Since(start, Clock::now()) * 1e3;
    if (recording) {
      ++stats.requests;
      stats.response_bytes += static_cast<double>(response.size());
      if (IsDrill(line)) stats.drill_ms.push_back(total_ms);
      if (IsRootExpand(line)) stats.root_expand_ms.push_back(total_ms);
      if (trace_) {
        stats.parse_us.push_back(parse_s * 1e6);
        stats.execute_us.push_back(execute_s * 1e6);
        stats.encode_us.push_back(encode_s * 1e6);
        if (IsDrill(line)) stats.drill_execute_us.push_back(execute_s * 1e6);
      }
    }
    return response;
  }

  bool recording = false;
  Stats stats;

 private:
  Deployment* deployment_;
  bool trace_;
};

/// A drill-down response kept for the brute-force check, with the number
/// of dataset rows its session saw.
struct Kept {
  std::string response;
  size_t rows = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.scratch);

  // Inputs: a pure function of the seed.
  e2e::Dataset data(args.seed);
  e2e::Rng row_rng(e2e::MixSeed(args.seed, 1));
  data.AppendRandomRows(row_rng, spec->rows);
  const std::string csv = data.Csv();

  // Set-up, repeated in two batches: one before the measured window (its
  // last deployment serves the run) and one after it. `setup_s` is the mean
  // of the two batch medians, so it samples the host at both ends of the
  // run rather than at one instant.
  std::vector<double> load_s, register_s, batch_medians;
  auto setup_batch = [&](int first_rep) {
    std::unique_ptr<Deployment> d;
    std::vector<double> batch;
    double total_s = 0;
    for (int rep = 0; rep < kMaxSetupReps &&
                      (rep < kMinSetupReps || total_s < kSetupBudgetS);
         ++rep) {
      d.reset();
      SetupTimes times;
      d = Deploy(*spec, csv, args.scratch, args.seed, first_rep + rep, &times);
      batch.push_back(times.load_s + times.register_s);
      load_s.push_back(times.load_s);
      register_s.push_back(times.register_s);
      total_s += batch.back();
    }
    batch_medians.push_back(Median(batch));
    return d;
  };
  std::unique_ptr<Deployment> deployment = setup_batch(0);
  SampleHandler* sampler =
      deployment->engine ? deployment->engine->sampler() : nullptr;

  std::vector<Client> clients(spec->clients,
                              Client(deployment.get(), args.trace));

  // Shared by the clients. `ingest_mu` orders appends and opens, so the
  // benchmark's copy of the data holds the table's rows in the table's
  // order and each session knows how many rows its pinned version has.
  std::mutex ingest_mu;
  e2e::Rng ingest_rng(e2e::MixSeed(args.seed, 3));
  size_t published_rows = data.rows();
  uint64_t first_version = 0, last_version = 0;
  bool recording = false;  // set and cleared while no client runs
  // Guarded by `result_mu`.
  std::mutex result_mu;
  uint64_t failed = 0;          // bad responses inside the measured window
  uint64_t other_failures = 0;  // bad responses outside it
  uint64_t drills_seen = 0;
  std::vector<Kept> kept;

  std::vector<double> zipf_cdf;
  for (size_t p = 1; p <= spec->paths; ++p) {
    zipf_cdf.push_back((zipf_cdf.empty() ? 0 : zipf_cdf.back()) + 1.0 / p);
  }

  // One session of client `c`; `index` numbers the client's sessions.
  auto iterate = [&](size_t c, uint64_t index, e2e::Rng& path_rng) {
    Client& client = clients[c];
    size_t rows_at_open = 0;
    const e2e::Observe observe = [&](const std::string& line,
                                     const std::string& response,
                                     const e2e::Reply& reply) {
      std::lock_guard<std::mutex> lock(result_mu);
      if (!reply.ok) {
        (recording ? failed : other_failures) += 1;
        std::fprintf(stderr, "request failed: %.120s -> %.200s\n",
                     line.c_str(), response.c_str());
      }
      const bool checked = IsDrill(line) || line.rfind("exact ", 0) == 0;
      if (reply.ok && checked && drills_seen++ % 7 == 0 &&
          kept.size() < kMaxVerified) {
        kept.push_back({response, rows_at_open});
      }
    };
    const e2e::Call call = [&](const std::string& line) {
      if (line.rfind("open ", 0) != 0) return client.Call(line);
      std::lock_guard<std::mutex> lock(ingest_mu);
      for (size_t i = 0; i < spec->appends_per_session; ++i) {
        data.AppendRandomRow(ingest_rng);
        const std::string append = "append " + data.CsvRow(data.rows() - 1);
        const std::string response = client.Call(append);
        e2e::Reply reply;
        e2e::ParseReply(response, &reply);
        observe(append, response, reply);
        published_rows = reply.table_rows;
        if (recording && first_version == 0) {
          first_version = reply.table_version;
        }
        last_version = reply.table_version;
      }
      rows_at_open = published_rows;
      return client.Call(line);
    };
    // Sessions pair k and the measure in fixed shares, so the request mix
    // is the same for every seed and run length.
    uint64_t plan = (args.part << 32) + (uint64_t{c} << 24) + index;
    uint64_t session_seed = e2e::MixSeed(args.seed, 1000 + plan);
    if (spec->paths > 0) {
      const double u = path_rng.Unit() * zipf_cdf.back();
      plan = std::min<size_t>(
          std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
              zipf_cdf.begin(),
          spec->paths - 1);
      // The same popular paths on every seed: with only a few of them, the
      // drills they happen to pick would otherwise set the run's cost.
      session_seed = e2e::MixSeed(0x9a7b, plan);
    }
    e2e::Rng rng(session_seed);
    e2e::RunAnalystSession(rng, kDataset, spec->shape, 2 + plan % 3,
                           (plan / 3) % 4 == 0, call, observe);
  };

  // Warm-up: two sessions per client, one client at a time. In the window,
  // every client runs sessions until it closes.
  std::vector<e2e::Rng> path_rngs;
  for (size_t c = 0; c < spec->clients; ++c) {
    path_rngs.emplace_back(
        e2e::MixSeed(args.seed, 2 + (args.part << 32) + (uint64_t{c} << 24)));
  }
  std::vector<uint64_t> sessions(spec->clients, 0);
  Clock::time_point window_end;
  auto drive = [&](size_t c) {
    while (Clock::now() < window_end) iterate(c, sessions[c]++, path_rngs[c]);
  };
  for (size_t c = 0; c < spec->clients; ++c) {
    for (int i = 0; i < 2; ++i) iterate(c, sessions[c]++, path_rngs[c]);
  }

  // The measured window.
  const Counters before = Counters::Read(sampler);
  recording = true;
  for (Client& client : clients) client.recording = true;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point window_start = Clock::now();
  window_end = window_start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(args.seconds));
  std::vector<std::thread> threads;
  for (size_t c = 1; c < spec->clients; ++c) threads.emplace_back(drive, c);
  drive(0);
  for (std::thread& t : threads) t.join();
  const double window_s = Since(window_start, Clock::now());
  const double window_cpu_s = ProcessCpuSeconds() - cpu_start;
  recording = false;
  const Counters layer = Counters::Delta(before, Counters::Read(sampler));
  setup_batch(kMaxSetupReps);
  Stats stats;
  for (const Client& client : clients) stats.Merge(client.stats);

  // Check the kept answers against the benchmark's copy of the data.
  uint64_t wrong = 0;
  size_t nodes_checked = 0;
  for (const Kept& k : kept) {
    e2e::Reply reply;
    if (!e2e::ParseReply(k.response, &reply) || !e2e::TreeConsistent(reply)) {
      ++wrong;
      continue;
    }
    for (const e2e::Node& node : reply.nodes) {
      if (!node.exact) continue;  // a sampling estimate, not a count
      double expected = 0;
      if (!data.Mass(node.cells, k.rows, reply.sum, &expected) ||
          expected != node.mass) {
        ++wrong;
        std::fprintf(stderr, "wrong mass for node %d: %.17g, expected %.17g\n",
                     node.id, node.mass, expected);
      }
      ++nodes_checked;
    }
  }
  const bool correct = failed == 0 && other_failures == 0 && wrong == 0 &&
                       nodes_checked > 0 && !stats.drill_ms.empty();
  std::fprintf(stderr,
               "workload=%s seed=%llu clients=%zu requests=%llu drills=%zu "
               "checked_nodes=%zu wrong=%llu\n",
               spec->name, static_cast<unsigned long long>(args.seed),
               spec->clients, static_cast<unsigned long long>(stats.requests),
               stats.drill_ms.size(), nodes_checked,
               static_cast<unsigned long long>(wrong));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"expand_mean_ms", Mean(stats.drill_ms), "ms"},
        {"expand_p95_ms", Percentile(stats.drill_ms, 0.95), "ms"},
        {"cpu_us_per_request", window_cpu_s * 1e6 / stats.requests, "us"},
        {"setup_s", Mean(batch_medians), "s"},
    };
  } else {
    const double drills = static_cast<double>(stats.drill_ms.size());
    const double lookups = layer.cache_hits + layer.cache_misses;
    metrics = {
        {"setup_load_s", Median(load_s), "s"},
        {"setup_register_s", Median(register_s), "s"},
        {"codec_parse_us", Median(stats.parse_us), "us"},
        {"service_execute_us", Median(stats.execute_us), "us"},
        {"codec_encode_us", Median(stats.encode_us), "us"},
        {"expand_execute_p50_us", Median(stats.drill_execute_us), "us"},
        {"expand_execute_p95_us", Percentile(stats.drill_execute_us, 0.95),
         "us"},
        {"traced_root_expand_p50_ms", Median(stats.root_expand_ms), "ms"},
        {"traced_requests_per_s", static_cast<double>(stats.requests) / window_s,
         "1/s"},
        {"response_bytes", stats.response_bytes / stats.requests, "bytes"},
        {"cache_hits", layer.cache_hits, "count"},
        {"cache_misses", layer.cache_misses, "count"},
        {"cache_hit_ratio", lookups > 0 ? layer.cache_hits / lookups : 0,
         "ratio"},
        {"cache_singleflight_waits", layer.singleflight_waits, "count"},
        {"shard_scans_per_expand", drills > 0 ? layer.shard_scans / drills : 0,
         "count"},
        {"sampler_finds", layer.sampler_finds, "count"},
        {"sampler_combines", layer.sampler_combines, "count"},
        {"sampler_creates", layer.sampler_creates, "count"},
        {"live_versions_published",
         static_cast<double>(last_version - first_version), "count"},
        {"expands", drills, "count"},
    };
  }
  PrintResult(correct, stats.requests, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_driver --workload <explore|dashboard|sampled> "
                 "--seed <n> --seconds <s> --trace <0|1> [--part <n>] "
                 "[--scratch <dir>]\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  // Keep freed memory in the process and reuse it, instead of mapping
  // large blocks fresh from the kernel and handing them back on free. The
  // cost of first-touch page faults follows the host's memory state and
  // otherwise moves set-up time by up to a third from one minute to the
  // next.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  return Run(args);
}
