#ifndef SMARTDD_CLUSTER_ROUTER_H_
#define SMARTDD_CLUSTER_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/wire_service.h"
#include "common/metrics.h"
#include "rpc/channel.h"

namespace smartdd::cluster {

struct BackendAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct RouterOptions {
  /// Health probe cadence (0 disables the probe thread; backends are then
  /// only marked down by failed calls and up by successful ones).
  uint64_t probe_interval_ms = 500;
  /// Per-probe ping budget.
  double probe_timeout_ms = 1000;
  /// Dial budget for each backend connection.
  double connect_timeout_ms = 2000;
};

/// The cluster's front door: an api::WireService that owns no engine at
/// all. Sessions are partitioned across backend shard-server processes —
/// each backend hosts a full deterministic replica of the dataset (itself
/// optionally row-sharded in-process, see EngineOptions::num_shards), so
/// any backend produces byte-identical trees and the router only has to
/// route:
///
///   open  -> least-loaded healthy backend (ties to the lowest index);
///            the issued session token is mapped to that backend
///   token-addressed requests -> the token's backend, verbatim
///   ping  -> first healthy backend
///
/// Responses are forwarded byte-for-byte (the RPC payloads are the codec
/// bytes), which is the cluster's correctness contract: an HTTP adapter in
/// front of a Router serves the same bytes as one in front of a local
/// service, token values aside. Tokens are minted by the backends (give
/// each a distinct token_seed); the router never rewrites them, it only
/// remembers where each one lives. Routes are kept after close on
/// purpose — a closed session's token still forwards to its backend,
/// whose registry answers the same NOT_FOUND a single process would.
///
/// Failover: a backend whose connection dies fails its calls with a clean
/// UNAVAILABLE envelope (HTTP 503 through the adapter), is marked down,
/// and stops receiving opens; its sessions are lost (session state is not
/// replicated). A periodic ping probe marks it up again once it answers —
/// the channel re-dials lazily, so a restarted backend heals with no
/// coordination. Membership and health are exported as
/// smartdd_cluster_backend_up{backend="host:port"} gauges.
class Router : public api::WireService {
 public:
  Router(std::vector<BackendAddress> backends, RouterOptions options = {});
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connects to every backend (best effort: unreachable ones start
  /// unhealthy and the probe keeps trying) and starts the probe thread.
  /// InvalidArgument when constructed with no backends.
  Status Start();

  /// Stops probing and waits for in-flight streaming expansions.
  void Shutdown();

  // --- api::WireService --------------------------------------------------
  api::WireResponse ServeWire(std::string_view line) override;
  Status SubmitExpandWire(const api::ExpandRequest& request,
                          std::shared_ptr<api::WireObserver> observer) override;
  /// Ready when at least one backend is healthy.
  bool Ready() const override;

  size_t num_backends() const { return backends_.size(); }
  bool backend_healthy(size_t i) const;
  /// Opens currently routed to backend `i` (for tests).
  size_t backend_sessions(size_t i) const;
  /// Runs one synchronous probe round (test hook; the probe thread does
  /// the same on its cadence).
  void ProbeNow();

 private:
  struct Backend {
    BackendAddress address;
    std::unique_ptr<rpc::Channel> channel;
    std::atomic<bool> healthy{false};
    std::atomic<size_t> sessions{0};
    Gauge* up_gauge = nullptr;
  };

  /// Least-loaded healthy backend; nullopt when none is healthy.
  std::optional<size_t> PickBackendForOpen();
  /// The backend owning `token`; unknown tokens go to the first healthy
  /// backend (whose registry answers the canonical NOT_FOUND).
  std::optional<size_t> RouteFor(uint64_t token);
  /// Forwards one line to backend `index` and maps transport failures to
  /// UNAVAILABLE envelopes.
  api::WireResponse Forward(size_t index, std::string_view line,
                            const Deadline& deadline = {});
  void MarkHealth(size_t index, bool healthy);
  void ProbeLoop();

  const RouterOptions options_;
  std::vector<std::unique_ptr<Backend>> backends_;

  std::mutex routes_mu_;
  std::unordered_map<uint64_t, size_t> routes_;

  std::thread probe_thread_;
  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool stop_probe_ = false;

  /// In-flight streaming expansions (each rides its own thread so
  /// SubmitExpandWire returns immediately, like the local service).
  std::mutex streams_mu_;
  std::condition_variable streams_cv_;
  size_t active_streams_ = 0;
  bool draining_ = false;

  std::atomic<bool> started_{false};

  Counter& forwarded_total_;
  Counter& failovers_total_;
};

}  // namespace smartdd::cluster

#endif  // SMARTDD_CLUSTER_ROUTER_H_
