#ifndef SMARTDD_RPC_SERVER_H_
#define SMARTDD_RPC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/status.h"
#include "net/conn_loop.h"
#include "rpc/frame.h"

namespace smartdd::rpc {

struct RpcServerCore;
struct RpcConn;

struct ServerOptions {
  /// Address/port to listen on; port 0 binds an ephemeral port (read it
  /// back from Server::port() after Start()).
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  /// Threads running call handlers. The shard-server's engine work rides
  /// the engine's own scheduler, so a handful is plenty.
  size_t worker_threads = 4;
  /// Accepted connections beyond this are closed immediately (a router
  /// keeps one multiplexed connection per backend, so the cap is small).
  size_t max_connections = 64;
  /// Per-connection cap on buffered unsent bytes. A peer that stops
  /// reading past this backlog has its connection aborted rather than
  /// buffering without bound.
  size_t max_out_buffer_bytes = 4 * 1024 * 1024;
  /// How long Shutdown() waits for in-flight calls to drain before closing
  /// their connections anyway.
  uint64_t drain_timeout_ms = 10000;
};

/// Thread-safe handle for answering one CALL. Handlers may keep it past
/// their return (async completion); the in-flight slot is released by
/// Finish. A Responder abandoned without Finish answers Internal on
/// destruction, so a buggy handler can never hang its caller.
class Responder {
 public:
  ~Responder();

  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;

  /// The codec request line carried by the CALL.
  const std::string& line() const { return line_; }

  /// Whether the caller asked for STREAM frames before the RESULT.
  bool wants_stream() const { return wants_stream_; }

  /// The call's budget, re-armed server-side from the CALL's remaining
  /// milliseconds and tied to the cancel state — expired() also fires once
  /// the peer sent CANCEL or its connection died. Valid while this
  /// Responder is alive.
  const Deadline& deadline() const { return deadline_; }

  /// True once the peer cancelled this call or its connection is gone.
  bool cancelled() const;

  /// Sends one STREAM frame (seq assigned 0,1,2,... in call order).
  /// Returns false once the call is cancelled or the connection died —
  /// the handler should stop producing.
  bool Stream(std::string_view step_json);

  /// Sends the RESULT frame and completes the call. One-shot (later calls
  /// are ignored); safe from any thread.
  void Finish(const ResultPayload& result);

 private:
  friend class Server;
  Responder(std::shared_ptr<RpcServerCore> core, std::shared_ptr<RpcConn> conn,
            uint64_t call_id, CallPayload call);

  const std::shared_ptr<RpcServerCore> core_;
  const std::shared_ptr<RpcConn> conn_;
  const uint64_t call_id_;
  const std::string line_;
  const bool wants_stream_;
  const std::shared_ptr<std::atomic<bool>> cancel_flag_;
  Deadline deadline_;
  uint64_t dispatch_ms_ = 0;
  std::atomic<uint32_t> next_seq_{0};
  std::atomic<bool> finished_{false};
};

/// The call handler. Runs on a server worker thread; must eventually call
/// responder->Finish (directly or from an async completion).
using CallHandler = std::function<void(const std::shared_ptr<Responder>&)>;

/// An RPC server speaking the rpc/frame wire format (SDRP): the protocol
/// layer over a net::ConnLoop, which owns the sockets (one epoll event-loop
/// thread: accept, bounded reads, flush, idle sweep, drain) and the handler
/// worker pool. This class supplies the ConnLoop hooks: the eager handshake
/// greeting on accept (none for a connection past the cap, which is simply
/// closed), handshake check and frame decode and dispatch on input, "busy"
/// while calls are live, close-and-cancel on the peer's EOF, GOAWAY on
/// drain, cancel flags flipped on close, and closing a peer that has not
/// sent its handshake within 2 s of the accept. Calls multiplex freely on
/// one connection; CANCEL frames flip the matching call's cancel flag
/// (visible through Responder::deadline()). Shutdown() is graceful (GOAWAY
/// to every peer, drain in-flight calls, flush, close); Stop() is abrupt
/// (close everything now — the chaos path). Instrumented via common/metrics
/// (smartdd_rpc_server_*). Fault point `rpc.server.dispatch` fires before
/// each handler invocation.
class Server : private net::ConnProtocol {
 public:
  explicit Server(CallHandler handler, ServerOptions options = {});
  /// Calls Shutdown() if still running.
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event loop + workers. IOError on any
  /// socket failure (port in use, bad address).
  Status Start();

  /// Graceful shutdown: closes the listener, sends GOAWAY on live
  /// connections, waits up to drain_timeout_ms for in-flight calls, then
  /// flushes and closes everything and joins. Idempotent.
  void Shutdown();

  /// Abrupt stop: closes every connection immediately, abandoning buffered
  /// output and in-flight calls (their Responders outlive the server
  /// safely and their peers observe a dead connection). For tests that
  /// simulate a crashing backend without a process kill.
  void Stop();

  /// The bound port (after Start()); useful with port 0.
  uint16_t port() const { return loop_.port(); }

  /// True between successful Start() and Shutdown()/Stop().
  bool running() const { return loop_.running(); }

  /// Live accepted connections (for tests).
  size_t open_connections() const { return loop_.open_connections(); }

  /// Calls dispatched but not yet finished (for tests).
  size_t inflight_calls() const;

 private:
  // net::ConnProtocol hooks (event-loop thread).
  std::shared_ptr<net::LoopConn> NewConn(int fd, uint64_t id) override;
  std::string OnShed() override;
  void OnInput(const std::shared_ptr<net::LoopConn>& conn) override;
  bool Busy(net::LoopConn& conn) override;
  bool CloseOnEof(net::LoopConn& conn) override;
  void OnDrain(net::LoopConn& conn) override;
  void OnClose(net::LoopConn& conn) override;
  bool OnIdle(net::LoopConn& conn, uint64_t now_ms,
              std::string* farewell) override;

  void DispatchCall(const std::shared_ptr<RpcConn>& conn, Frame frame);

  const CallHandler handler_;
  const ServerOptions options_;
  const std::shared_ptr<RpcServerCore> core_;

  // smartdd_rpc_server_* instruments (process-wide registry).
  Counter& calls_total_;
  Counter& protocol_errors_total_;

  net::ConnLoop loop_;
};

}  // namespace smartdd::rpc

#endif  // SMARTDD_RPC_SERVER_H_
