#ifndef SMARTDD_CLUSTER_SHARD_SERVER_H_
#define SMARTDD_CLUSTER_SHARD_SERVER_H_

#include <memory>

#include "api/wire_service.h"
#include "rpc/server.h"

namespace smartdd::cluster {

/// A backend process of the exploration cluster: one api::WireService
/// (typically a LocalWireService over an ExplorationService fronting a
/// deterministic, optionally row-sharded ExplorationEngine replica) hosted
/// behind an rpc::Server.
///
/// The mapping is mechanical on purpose — the RPC payloads ARE the codec
/// bytes, so every response a shard-server produces is byte-identical to
/// what the same service would answer in-process:
///
///   CALL(line)                 -> ServeWire(line)        -> RESULT(json)
///   CALL(line, wants_stream)   -> SubmitExpandWire(...)  -> STREAM* RESULT
///
/// A streamed CALL whose line is not an expand/star request is answered
/// with the same INVALID_ARGUMENT envelope the codec produces elsewhere.
/// Peer CANCEL (or connection death) stops a streaming expansion at its
/// next step, exactly like a slow SSE client does in-process.
class ShardServer {
 public:
  /// `wire` is borrowed and must outlive this object.
  ShardServer(api::WireService* wire, rpc::ServerOptions options = {});

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  Status Start() { return server_.Start(); }
  /// Graceful: GOAWAY, drain in-flight calls, flush, close.
  void Shutdown() { server_.Shutdown(); }
  /// Abrupt: closes every connection now (simulated crash for tests).
  void Stop() { server_.Stop(); }

  uint16_t port() const { return server_.port(); }
  bool running() const { return server_.running(); }
  size_t open_connections() const { return server_.open_connections(); }
  size_t inflight_calls() const { return server_.inflight_calls(); }

 private:
  void HandleCall(const std::shared_ptr<rpc::Responder>& responder);

  api::WireService* const wire_;
  rpc::Server server_;
};

}  // namespace smartdd::cluster

#endif  // SMARTDD_CLUSTER_SHARD_SERVER_H_
