// HTTP serving benchmark: N in-process clients drive the full network
// path — TCP loopback, epoll event loop, HTTP parse, codec, registry,
// engine, JSON encode, socket write — against one net::HttpServer fronting
// one ExplorationService. Each client loops: POST /v1/open, expand the
// root, drill into one child, close. Reports requests/sec and p50/p95
// per-expand latency through the socket, plus a socket-overhead probe: the
// same script through ExplorationService::ServeLine in-process (no socket)
// versus over loopback HTTP — the epoll layer should add tens of
// microseconds per request, not milliseconds (e2e_bench's traced run prices
// the layers below: codec parse, service execute, encode). A final degraded
// stage reruns the path under an injected fault schedule (dispatch
// latency, tight in-flight cap, pre-expired deadlines) and reports
// p50/p99 alongside the shed and partial-response rates.
//
// Env knobs: SMARTDD_HTTP_ROWS (default 150000), SMARTDD_HTTP_SESSIONS
// (sessions per client thread, default 8).
//
// Usage: bench_http_throughput [--threads=N] [--json=FILE]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/codec.h"
#include "api/service.h"
#include "bench/bench_util.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/timer.h"
#include "data/synth.h"
#include "explore/engine.h"
#include "net/exploration_http_adapter.h"
#include "net/http_server.h"
#include "weights/standard_weights.h"

namespace {

using namespace smartdd;
using namespace smartdd::bench;

/// Minimal blocking keep-alive HTTP client (Content-Length responses only —
/// exactly what the /v1 JSON endpoints produce).
class BenchClient {
 public:
  explicit BenchClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SMARTDD_CHECK(fd_ >= 0);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    SMARTDD_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) == 0);
  }
  ~BenchClient() { ::close(fd_); }

  /// One POST round trip; returns the response body.
  std::string Post(const std::string& path, const std::string& body) {
    std::string request = "POST " + path + " HTTP/1.1\r\nHost: b\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    request += body;
    size_t sent = 0;
    while (sent < request.size()) {
      ssize_t w = ::send(fd_, request.data() + sent, request.size() - sent,
                         MSG_NOSIGNAL);
      SMARTDD_CHECK(w > 0) << "send failed";
      sent += static_cast<size_t>(w);
    }
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      Fill();
    }
    size_t cl = buffer_.find("Content-Length: ");
    SMARTDD_CHECK(cl != std::string::npos && cl < header_end) << buffer_;
    size_t content_length = std::stoul(buffer_.substr(cl + 16));
    size_t total = header_end + 4 + content_length;
    while (buffer_.size() < total) Fill();
    std::string response_body =
        buffer_.substr(header_end + 4, content_length);
    buffer_.erase(0, total);
    return response_body;
  }

 private:
  void Fill() {
    char buf[16384];
    ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    SMARTDD_CHECK(r > 0) << "connection lost mid-response";
    buffer_.append(buf, static_cast<size_t>(r));
  }

  int fd_;
  std::string buffer_;
};

std::string TokenOf(const std::string& body) {
  size_t at = body.find("\"session\":\"");
  SMARTDD_CHECK(at != std::string::npos) << body;
  return body.substr(at + 11, 16);
}

/// One open -> expand -> expand -> close session over HTTP; appends
/// per-expand latencies and returns the number of HTTP requests made.
size_t RunHttpSession(BenchClient& client, size_t variant,
                      std::vector<double>* expand_latencies_ms) {
  std::string token = TokenOf(client.Post("/v1/open", "k=3"));
  WallTimer t;
  std::string first = client.Post("/v1/expand", token + " 0");
  expand_latencies_ms->push_back(t.ElapsedMillis());
  SMARTDD_CHECK(first.find("\"ok\":true") != std::string::npos) << first;
  int child = 1 + static_cast<int>(variant % 3);
  t.Restart();
  std::string second =
      client.Post("/v1/expand", token + " " + std::to_string(child));
  expand_latencies_ms->push_back(t.ElapsedMillis());
  SMARTDD_CHECK(second.find("\"ok\":true") != std::string::npos) << second;
  SMARTDD_CHECK(
      client.Post("/v1/close", token).find("\"ok\":true") !=
      std::string::npos);
  return 4;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

}  // namespace

int main(int argc, char** argv) {
  ParseFlags(argc, argv);

  const uint64_t rows = EnvU64("SMARTDD_HTTP_ROWS", 150000);
  const uint64_t sessions_per_client = EnvU64("SMARTDD_HTTP_SESSIONS", 8);

  SynthSpec spec;
  spec.rows = rows;
  spec.cardinalities = {12, 8, 6, 5, 4, 3};
  spec.zipf = {1.1, 0.8, 1.2, 0.6, 1.0, 0.4};
  spec.seed = 2024;
  Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;

  PrintExperimentHeader(
      "http_throughput",
      "HTTP serving: epoll server + adapter + service under client load",
      "requests/sec scales with concurrent clients; the socket layer adds "
      "microseconds over the in-process service path");
  std::printf("rows=%llu, sessions/client=%llu, hw threads=%u\n\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(sessions_per_client),
              std::thread::hardware_concurrency());

  // Socket-overhead probe: the same single-client script through
  // ServeLine (in-process) vs over loopback HTTP, serially.
  {
    EngineOptions engine_options;
    engine_options.num_threads = Flags().threads;
    ExplorationEngine engine(table, weight, engine_options);
    api::ExplorationService service;
    SMARTDD_CHECK(service.AddEngine("bench", &engine).ok());

    WallTimer direct_t;
    for (uint64_t i = 0; i < sessions_per_client; ++i) {
      std::string open = service.ServeLine("open k=3");
      size_t at = open.find("\"session\":\"");
      SMARTDD_CHECK(at != std::string::npos);
      std::string tok = open.substr(at + 11, 16);
      SMARTDD_CHECK(service.ServeLine("expand " + tok + " 0")
                        .find("\"ok\":true") != std::string::npos);
      SMARTDD_CHECK(service.ServeLine("expand " + tok + " " +
                                      std::to_string(1 + (i % 3)))
                        .find("\"ok\":true") != std::string::npos);
      SMARTDD_CHECK(service.ServeLine("close " + tok).find("\"ok\":true") !=
                    std::string::npos);
    }
    const double direct_ms = direct_t.ElapsedMillis();

    net::ExplorationHttpAdapter adapter(&service);
    net::HttpServer server(adapter.AsHandler(), {});
    SMARTDD_CHECK(server.Start().ok());
    std::vector<double> lat;
    WallTimer http_t;
    {
      BenchClient client(server.port());
      for (uint64_t i = 0; i < sessions_per_client; ++i) {
        RunHttpSession(client, i, &lat);
      }
    }
    const double http_ms = http_t.ElapsedMillis();
    server.Shutdown();
    // 4 HTTP requests per session.
    PrintSeriesRow("socket_overhead_ms_per_request", 1,
                   (http_ms - direct_ms) /
                       static_cast<double>(sessions_per_client * 4),
                   "clients", "http-minus-inprocess ms/request");
  }

  for (size_t clients : {size_t{1}, size_t{4}, size_t{16}}) {
    EngineOptions engine_options;
    engine_options.num_threads = Flags().threads;
    ExplorationEngine engine(table, weight, engine_options);
    api::ExplorationService service;
    SMARTDD_CHECK(service.AddEngine("bench", &engine).ok());
    net::ExplorationHttpAdapter adapter(&service);
    net::HttpServerOptions server_options;
    server_options.max_inflight_requests = 2 * clients + 8;
    net::HttpServer server(adapter.AsHandler(), server_options);
    SMARTDD_CHECK(server.Start().ok());

    std::vector<std::vector<double>> latencies(clients);
    std::vector<size_t> request_counts(clients, 0);
    WallTimer wall;
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
          BenchClient client(server.port());
          for (uint64_t i = 0; i < sessions_per_client; ++i) {
            request_counts[c] += RunHttpSession(client, c + i, &latencies[c]);
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    const double wall_s = wall.ElapsedSeconds();
    server.Shutdown();
    SMARTDD_CHECK(service.num_sessions() == 0) << "sessions leaked";
    SMARTDD_CHECK(engine.num_sessions() == 0);

    std::vector<double> all;
    size_t total_requests = 0;
    for (size_t c = 0; c < clients; ++c) {
      all.insert(all.end(), latencies[c].begin(), latencies[c].end());
      total_requests += request_counts[c];
    }
    PrintSeriesRow("requests_per_sec", static_cast<double>(clients),
                   wall_s > 0 ? static_cast<double>(total_requests) / wall_s
                              : 0,
                   "clients", "HTTP requests/s");
    PrintSeriesRow("p50_expand_ms", static_cast<double>(clients),
                   Percentile(all, 0.50), "clients",
                   "p50 expand latency over HTTP (ms)");
    PrintSeriesRow("p95_expand_ms", static_cast<double>(clients),
                   Percentile(all, 0.95), "clients",
                   "p95 expand latency over HTTP (ms)");
    std::printf("\n");
  }

  // --- Degraded-mode stage -----------------------------------------------
  // The same serving path under chaos: every dispatch pays an injected
  // latency fault (the in-memory engine has no disk to slow down, so the
  // HTTP tier stands in for slow I/O), a deliberately tight in-flight cap
  // provokes load shedding, and half the expands carry a pre-expired
  // deadline so the degrade path (partial trees as 200s) is on the hot
  // path. Reported: p50/p99 expand latency plus the shed and partial rates
  // — the robustness counterpart to the clean-path numbers above.
  {
    const size_t clients = 8;
    EngineOptions engine_options;
    engine_options.num_threads = Flags().threads;
    ExplorationEngine engine(table, weight, engine_options);
    api::ExplorationService service;
    SMARTDD_CHECK(service.AddEngine("bench", &engine).ok());
    net::ExplorationHttpAdapter adapter(&service);
    net::HttpServerOptions server_options;
    server_options.max_inflight_requests = clients / 2;
    net::HttpServer server(adapter.AsHandler(), server_options);
    SMARTDD_CHECK(server.Start().ok());

    FaultRegistry::Default().DisarmAll();
    SMARTDD_CHECK(
        FaultRegistry::Default().ArmFromSpec("http.dispatch=latency:2:0").ok());
    const uint64_t fired_before =
        FaultRegistry::Default().fired("http.dispatch");

    std::vector<std::vector<double>> latencies(clients);
    std::vector<size_t> responses(clients, 0);
    std::vector<size_t> sheds(clients, 0);
    std::vector<size_t> partials(clients, 0);
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
          BenchClient client(server.port());
          auto tally = [&](const std::string& body) {
            ++responses[c];
            if (body.find("CAPACITY_EXCEEDED") != std::string::npos) {
              ++sheds[c];
            }
            if (body.find("\"partial\":true") != std::string::npos) {
              ++partials[c];
            }
            return body;
          };
          for (uint64_t i = 0; i < sessions_per_client; ++i) {
            std::string open = tally(client.Post("/v1/open", "k=3"));
            size_t at = open.find("\"session\":\"");
            if (at == std::string::npos) continue;  // shed; next session
            std::string token = open.substr(at + 11, 16);
            for (int node : {0, 1}) {
              // Alternate an ample budget with a pre-expired one: the
              // latter always degrades, keeping the partial path hot.
              const char* deadline =
                  ((i + static_cast<uint64_t>(node)) % 2 == 0)
                      ? " deadline_ms=50"
                      : " deadline_ms=0.0001";
              WallTimer t;
              tally(client.Post("/v1/expand", token + " " +
                                                  std::to_string(node) +
                                                  deadline));
              latencies[c].push_back(t.ElapsedMillis());
            }
            tally(client.Post("/v1/close", token));
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    FaultRegistry::Default().DisarmAll();
    server.Shutdown();
    SMARTDD_CHECK(service.num_sessions() == 0) << "sessions leaked";

    std::vector<double> all;
    size_t total = 0, shed = 0, partial = 0;
    for (size_t c = 0; c < clients; ++c) {
      all.insert(all.end(), latencies[c].begin(), latencies[c].end());
      total += responses[c];
      shed += sheds[c];
      partial += partials[c];
    }
    const double denom = total > 0 ? static_cast<double>(total) : 1.0;
    PrintSeriesRow("degraded_p50_expand_ms", static_cast<double>(clients),
                   Percentile(all, 0.50), "clients",
                   "p50 expand latency under fault schedule (ms)");
    PrintSeriesRow("degraded_p99_expand_ms", static_cast<double>(clients),
                   Percentile(all, 0.99), "clients",
                   "p99 expand latency under fault schedule (ms)");
    PrintSeriesRow("degraded_shed_rate", static_cast<double>(clients),
                   static_cast<double>(shed) / denom, "clients",
                   "fraction of responses shed with CAPACITY_EXCEEDED");
    PrintSeriesRow("degraded_partial_rate", static_cast<double>(clients),
                   static_cast<double>(partial) / denom, "clients",
                   "fraction of responses degraded to partial trees");
    std::printf("faults injected at http.dispatch: %llu\n\n",
                static_cast<unsigned long long>(
                    FaultRegistry::Default().fired("http.dispatch") -
                    fired_before));
  }

  std::printf("http throughput bench done\n");
  return 0;
}
