#ifndef SMARTDD_NET_HTTP_SERVER_H_
#define SMARTDD_NET_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/conn_loop.h"
#include "net/http_parser.h"

namespace smartdd::net {

class HttpServer;
/// The LoopCore every live StreamWriter co-owns, plus the stream buffer
/// cap and stream metrics, so a stream finishing after the server object is
/// gone touches only memory it co-owns. Defined in http_server.cc.
struct ServerCore;

struct HttpServerOptions {
  /// Address/port to listen on; port 0 binds an ephemeral port (read it
  /// back from HttpServer::port() after Start()).
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  /// Threads running request handlers. Engine-bound work (SubmitExpand)
  /// rides the engine's own scheduler, so a handful is plenty.
  size_t worker_threads = 4;
  /// Accepted connections beyond this are answered 503 and closed.
  size_t max_connections = 1024;
  /// Requests dispatched-but-unfinished (including open SSE streams) beyond
  /// this are shed with 503 instead of queued — bounded work, bounded queue.
  size_t max_inflight_requests = 64;
  /// Connections with a stalled request (slow loris) or no request at all
  /// are closed after this long; 0 disables. Handling/streaming connections
  /// are exempt — a long expansion is work, not idleness.
  uint64_t idle_timeout_ms = 30000;
  /// Per-connection cap on buffered unsent stream bytes. A slow SSE reader
  /// that falls this far behind has its stream cancelled (the expansion's
  /// ProgressSink sees false) rather than blocking an engine worker.
  size_t max_stream_buffer_bytes = 256 * 1024;
  /// How long Shutdown() waits for in-flight requests/streams to drain
  /// before closing their connections anyway.
  uint64_t drain_timeout_ms = 10000;
  HttpLimits limits;
};

/// A buffered (non-streaming) response. `status` 0 is the streaming marker:
/// the handler took ownership of the StreamWriter and the response is
/// whatever it writes (see HttpResponse::Streaming()).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Extra headers beyond Content-Type/Content-Length/Connection.
  std::vector<std::pair<std::string, std::string>> extra_headers;
  std::string body;

  static HttpResponse Streaming() {
    HttpResponse r;
    r.status = 0;
    return r;
  }
};

/// Incremental response channel for streaming handlers (SSE). Thread-safe;
/// writable from any thread (an engine worker inside a ProgressSink, long
/// after the handler returned). Never blocks: bytes land in the
/// connection's outbound buffer and the epoll loop flushes them as the
/// client drains. Once the buffered backlog exceeds
/// max_stream_buffer_bytes, the stream flips to cancelled — Write returns
/// false (the caller should stop producing) and End() tears the connection
/// down instead of waiting on a reader that is not reading.
class StreamWriter {
 public:
  /// Opaque per-connection state, defined in http_server.cc.
  struct Conn;

  ~StreamWriter();

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Sends the status line + headers (Transfer-Encoding: chunked on
  /// HTTP/1.1). Must be called once, before Write. Returns false if the
  /// client is already gone.
  bool Begin(int status, std::string_view content_type);

  /// Appends one chunk. Returns false once cancelled (buffer cap exceeded)
  /// or the connection died; the caller should stop streaming.
  bool Write(std::string_view data);

  /// Terminates the stream (final chunk on HTTP/1.1) and completes the
  /// request. Idempotent. Called by the destructor if forgotten, so an
  /// abandoned stream can never leak the in-flight slot.
  void End();

  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

 private:
  friend class HttpServer;
  StreamWriter(std::shared_ptr<ServerCore> core, std::shared_ptr<Conn> conn,
               bool chunked, bool keep_alive);

  std::shared_ptr<ServerCore> core_;
  std::shared_ptr<Conn> conn_;
  const bool chunked_;
  const bool keep_alive_;
  std::atomic<bool> begun_{false};
  std::atomic<bool> ended_{false};
  std::atomic<bool> cancelled_{false};
};

/// The request handler. Runs on a server worker thread. Return a buffered
/// HttpResponse, or call stream->Begin(...) and return
/// HttpResponse::Streaming() to produce the body incrementally (the stream
/// may outlive the handler call; End() completes the request).
using HttpHandler = std::function<HttpResponse(
    const HttpRequest&, const std::shared_ptr<StreamWriter>&)>;

/// An HTTP/1.1 server: the HTTP protocol layer over a ConnLoop, which owns
/// the sockets (one epoll event-loop thread: accept, bounded reads, flush,
/// idle sweep, graceful drain) and the handler worker pool. This class
/// supplies the ConnLoop hooks: incremental request parsing (HttpParser,
/// bounded by HttpLimits) and dispatch on input, completion on wake (reset
/// the parser, advance the keep-alive pipeline — responses serialize in
/// request order, at most one request per connection is in flight), a 503
/// for a connection past the cap, "busy" while a request is handled or
/// streaming, finishing the in-flight response after the peer's EOF, and a
/// 408 for a half-sent request at the idle timeout. Also chunked streaming
/// responses and in-flight-cap 503 load shedding. Instrumented via
/// common/metrics (smartdd_http_*).
class HttpServer : private ConnProtocol {
 public:
  explicit HttpServer(HttpHandler handler, HttpServerOptions options = {});
  /// Calls Shutdown() if still running.
  ~HttpServer() override;

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the event loop + workers. IOError on any
  /// socket failure (port in use, bad address).
  Status Start();

  /// Graceful shutdown: closes the listener, answers further requests on
  /// live connections with 503, waits up to drain_timeout_ms for in-flight
  /// requests and streams to finish, then closes everything and joins.
  /// Idempotent; safe to call from any thread except a handler.
  void Shutdown();

  /// The bound port (after Start()); useful with port 0.
  uint16_t port() const { return loop_.port(); }

  /// True between successful Start() and Shutdown().
  bool running() const { return loop_.running(); }

  /// True once Shutdown() began draining (the readiness probe's "stop
  /// sending me traffic" signal; liveness stays true until the process
  /// exits).
  bool draining() const { return loop_.draining(); }

  /// Live accepted connections (for tests).
  size_t open_connections() const { return loop_.open_connections(); }

  /// Requests dispatched or streaming, not yet complete (for tests).
  size_t inflight_requests() const;

 private:
  using Conn = StreamWriter::Conn;

  // ConnProtocol hooks (event-loop thread).
  std::shared_ptr<LoopConn> NewConn(int fd, uint64_t id) override;
  std::string OnShed() override;
  void OnInput(const std::shared_ptr<LoopConn>& conn) override;
  void OnWake(const std::shared_ptr<LoopConn>& conn) override;
  bool Busy(LoopConn& conn) override;
  bool CloseOnEof(LoopConn& conn) override;
  bool OnIdle(LoopConn& conn, uint64_t now_ms, std::string* farewell) override;

  /// Parses buffered input and dispatches at most one request.
  void Advance(const std::shared_ptr<Conn>& conn);
  void DispatchRequest(const std::shared_ptr<Conn>& conn);

  const HttpHandler handler_;
  const HttpServerOptions options_;
  /// Co-owned by every StreamWriter; see ServerCore.
  const std::shared_ptr<ServerCore> core_;

  // smartdd_http_* instruments (process-wide registry).
  Counter& requests_total_;
  Counter& shed_total_;
  Counter& parse_errors_total_;

  ConnLoop loop_;
};

}  // namespace smartdd::net

#endif  // SMARTDD_NET_HTTP_SERVER_H_
