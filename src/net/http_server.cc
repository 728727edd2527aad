#include "net/http_server.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace smartdd::net {

namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Content Too Large";
    case 414: return "URI Too Long";
    case 417: return "Expectation Failed";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Status";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                              ReasonPhrase(response.status));
  out += "Content-Type: " + response.content_type + "\r\n";
  out += StrFormat("Content-Length: %zu\r\n", response.body.size());
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

std::string ChunkFrame(std::string_view data) {
  std::string out = StrFormat("%zx\r\n", data.size());
  out += data;
  out += "\r\n";
  return out;
}

HttpResponse PlainResponse(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.content_type = "text/plain; charset=utf-8";
  r.body = std::move(body);
  return r;
}

}  // namespace

struct ServerCore : LoopCore {
  explicit ServerCore(size_t stream_buffer_cap)
      : max_stream_buffer_bytes(stream_buffer_cap),
        sse_cancelled_total(MetricsRegistry::Default().GetCounter(
            "smartdd_http_sse_cancelled_total",
            "Streaming responses cancelled because the client fell behind")),
        request_seconds(MetricsRegistry::Default().GetHistogram(
            "smartdd_http_request_seconds",
            "Dispatch-to-completion latency of handled requests",
            Histogram::LatencySeconds())) {}

  const size_t max_stream_buffer_bytes;
  Counter& sse_cancelled_total;
  Histogram& request_seconds;
};

/// Per-connection HTTP state on top of the loop's. The unannotated fields
/// belong to the event-loop thread alone (parsing); the rest sit behind
/// `mu`.
struct StreamWriter::Conn : LoopConn {
  Conn(int fd, uint64_t id, const HttpLimits& limits)
      : LoopConn(fd, id), parser(limits) {}

  // --- event-loop thread only ---
  HttpParser parser;
  bool handling = false;    ///< a request is dispatched / streaming
  bool dead_parse = false;  ///< fatal request defect: flush, then close

  // --- shared with workers / stream writers (guarded by mu) ---
  bool response_complete = false;  ///< current request fully serialized
  uint64_t dispatch_ms = 0;        ///< request latency start
};

// --- request completion (shared by buffered and streamed paths) ----------

namespace {

/// Serializes a buffered response for the connection's current request and
/// marks it complete. Touches only the co-owned Conn and ServerCore, so it
/// is safe from any thread at any point in the server's lifetime.
void FinishRequest(ServerCore& core,
                   const std::shared_ptr<StreamWriter::Conn>& conn,
                   const HttpResponse& response, bool keep_alive) {
  std::string bytes = SerializeResponse(response, keep_alive);
  uint64_t started;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->out += bytes;
    conn->response_complete = true;
    if (!keep_alive) conn->close_after_flush = true;
    started = conn->dispatch_ms;
  }
  core.request_seconds.Observe(static_cast<double>(SteadyNowMs() - started) /
                               1e3);
  core.DecrementInflight();
  core.MarkDirty(conn->id);
}

}  // namespace

// --- StreamWriter --------------------------------------------------------

StreamWriter::StreamWriter(std::shared_ptr<ServerCore> core,
                           std::shared_ptr<Conn> conn, bool chunked,
                           bool keep_alive)
    : core_(std::move(core)),
      conn_(std::move(conn)),
      chunked_(chunked),
      keep_alive_(keep_alive) {}

StreamWriter::~StreamWriter() {
  // Safety net: a handler that claimed the stream but never finished it
  // (or an abandoned ProgressSink) must not leak the in-flight slot.
  if (!ended_.load(std::memory_order_acquire)) End();
}

bool StreamWriter::Begin(int status, std::string_view content_type) {
  if (conn_->closed.load(std::memory_order_acquire)) {
    // Client already gone. Leave begun_ unset so the handler's fallback
    // buffered response (if any) still takes the normal completion path.
    cancelled_.store(true, std::memory_order_release);
    return false;
  }
  if (begun_.exchange(true, std::memory_order_acq_rel)) return false;
  std::string head =
      StrFormat("HTTP/1.1 %d %s\r\n", status, ReasonPhrase(status));
  head += "Content-Type: " + std::string(content_type) + "\r\n";
  head += "Cache-Control: no-cache\r\n";
  if (chunked_) head += "Transfer-Encoding: chunked\r\n";
  // A close-delimited (HTTP/1.0) stream cannot keep the connection alive.
  head += (keep_alive_ && chunked_) ? "Connection: keep-alive\r\n"
                                    : "Connection: close\r\n";
  head += "\r\n";
  {
    std::lock_guard<std::mutex> lock(conn_->mu);
    conn_->out += head;
  }
  core_->MarkDirty(conn_->id);
  return true;
}

bool StreamWriter::Write(std::string_view data) {
  if (!begun_.load(std::memory_order_acquire) ||
      ended_.load(std::memory_order_acquire) || cancelled()) {
    return false;
  }
  if (conn_->closed.load(std::memory_order_acquire)) {
    cancelled_.store(true, std::memory_order_release);
    return false;
  }
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn_->mu);
    if (conn_->out.size() + data.size() > core_->max_stream_buffer_bytes) {
      overflow = true;
    } else {
      conn_->out += chunked_ ? ChunkFrame(data) : std::string(data);
    }
  }
  if (overflow) {
    // The reader is not reading; cancel rather than buffer without bound
    // or block the producer (an engine worker).
    cancelled_.store(true, std::memory_order_release);
    core_->sse_cancelled_total.Inc();
    return false;
  }
  core_->MarkDirty(conn_->id);
  return true;
}

void StreamWriter::End() {
  if (ended_.exchange(true, std::memory_order_acq_rel)) return;
  if (!begun_.load(std::memory_order_acquire)) {
    // The handler marked the response as streaming but the stream never
    // started (e.g. the submit failed before the first byte): answer with
    // a plain 500 so the request cannot hang.
    FinishRequest(*core_, conn_, PlainResponse(500, "stream never began\n"),
                  false);
    return;
  }
  uint64_t started;
  {
    std::lock_guard<std::mutex> lock(conn_->mu);
    if (!cancelled() && !conn_->closed.load(std::memory_order_acquire) &&
        chunked_) {
      conn_->out += "0\r\n\r\n";
    }
    conn_->response_complete = true;
    if (cancelled()) conn_->abort_conn = true;
    conn_->close_after_flush =
        conn_->close_after_flush || !keep_alive_ || !chunked_;
    started = conn_->dispatch_ms;
  }
  core_->request_seconds.Observe(
      static_cast<double>(SteadyNowMs() - started) / 1e3);
  core_->DecrementInflight();
  core_->MarkDirty(conn_->id);
}

// --- HttpServer ----------------------------------------------------------

HttpServer::HttpServer(HttpHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)),
      options_(std::move(options)),
      core_(std::make_shared<ServerCore>(options_.max_stream_buffer_bytes)),
      requests_total_(MetricsRegistry::Default().GetCounter(
          "smartdd_http_requests_total",
          "HTTP requests fully parsed (including shed ones)")),
      shed_total_(MetricsRegistry::Default().GetCounter(
          "smartdd_http_shed_total",
          "Requests answered 503 by connection/in-flight load shedding")),
      parse_errors_total_(MetricsRegistry::Default().GetCounter(
          "smartdd_http_parse_errors_total",
          "Connections rejected for malformed or over-limit requests")),
      loop_(
          ConnLoopConfig{
              options_.bind_address, options_.port, options_.worker_threads,
              options_.max_connections, options_.limits.input_budget(),
              options_.drain_timeout_ms,
              &MetricsRegistry::Default().GetCounter(
                  "smartdd_http_connections_total", "Connections accepted"),
              &MetricsRegistry::Default().GetGauge(
                  "smartdd_http_connections_open",
                  "Currently open connections")},
          core_, *this) {
  SMARTDD_CHECK(handler_ != nullptr);
}

HttpServer::~HttpServer() { Shutdown(); }

size_t HttpServer::inflight_requests() const {
  return core_->inflight.load(std::memory_order_acquire);
}

Status HttpServer::Start() { return loop_.Start(); }

void HttpServer::Shutdown() { loop_.Shutdown(); }

std::shared_ptr<LoopConn> HttpServer::NewConn(int fd, uint64_t id) {
  return std::make_shared<Conn>(fd, id, options_.limits);
}

std::string HttpServer::OnShed() {
  shed_total_.Inc();
  return SerializeResponse(PlainResponse(503, "connection limit reached\n"),
                           false);
}

void HttpServer::OnInput(const std::shared_ptr<LoopConn>& conn) {
  Advance(std::static_pointer_cast<Conn>(conn));
}

void HttpServer::OnWake(const std::shared_ptr<LoopConn>& base) {
  auto conn = std::static_pointer_cast<Conn>(base);
  bool completed, close_after;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    completed = conn->response_complete;
    conn->response_complete = false;
    close_after = conn->close_after_flush;
  }
  if (!completed) return;
  conn->handling = false;
  if (close_after) return;
  conn->parser.Reset();
  conn->last_activity_ms = SteadyNowMs();
  Advance(conn);  // a pipelined follower may already be buffered
}

bool HttpServer::Busy(LoopConn& conn) {
  return static_cast<Conn&>(conn).handling;
}

// A half-closed peer still gets the response it is owed: the connection
// closes once that response has flushed.
bool HttpServer::CloseOnEof(LoopConn&) { return false; }

bool HttpServer::OnIdle(LoopConn& base, uint64_t now_ms,
                        std::string* farewell) {
  auto& conn = static_cast<Conn&>(base);
  // In-flight work is never idleness; only quiet keep-alive connections
  // and stalled (slow-loris) request reads time out.
  if (options_.idle_timeout_ms == 0 || conn.handling ||
      now_ms - conn.last_activity_ms < options_.idle_timeout_ms) {
    return false;
  }
  if (conn.parser.mid_request()) {
    // A half-sent request earns an answer before the close.
    *farewell =
        SerializeResponse(PlainResponse(408, "request timed out\n"), false);
  }
  return true;
}

void HttpServer::Advance(const std::shared_ptr<Conn>& conn) {
  while (!conn->handling && !conn->dead_parse &&
         !conn->closed.load(std::memory_order_acquire)) {
    HttpParser::State state = conn->parser.Consume(&conn->in);
    if (state == HttpParser::State::kNeedMore) {
      if (conn->parser.TakeExpectContinue()) {
        // The body is still outstanding and the client is waiting for the
        // interim go-ahead (curl holds >1KB bodies back for up to 1s).
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->out += "HTTP/1.1 100 Continue\r\n\r\n";
      }
      break;
    }
    if (state == HttpParser::State::kError) {
      parse_errors_total_.Inc();
      std::string bytes = SerializeResponse(
          PlainResponse(conn->parser.error_status(),
                        conn->parser.error() + "\n"),
          false);
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->out += bytes;
        conn->close_after_flush = true;
      }
      conn->dead_parse = true;  // never parse this connection again
      break;
    }
    DispatchRequest(conn);
  }
}

void HttpServer::DispatchRequest(const std::shared_ptr<Conn>& conn) {
  requests_total_.Inc();
  HttpRequest request = conn->parser.request();
  const bool draining = loop_.draining();
  const bool keep_alive = request.keep_alive && !draining;

  if (draining ||
      core_->inflight.load(std::memory_order_acquire) >=
          options_.max_inflight_requests) {
    // Request-level shedding: bounded in-flight work, instant 503, and the
    // connection survives so the client can retry after backoff.
    shed_total_.Inc();
    HttpResponse r = PlainResponse(
        503, draining ? "server is shutting down\n" : "server overloaded\n");
    r.extra_headers.emplace_back("Retry-After", "1");
    std::string bytes = SerializeResponse(r, keep_alive);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->out += bytes;
      if (!keep_alive) conn->close_after_flush = true;
    }
    if (keep_alive) {
      conn->parser.Reset();  // keep serving the pipeline
    } else {
      conn->dead_parse = true;
    }
    return;
  }

  core_->inflight.fetch_add(1, std::memory_order_acq_rel);
  conn->handling = true;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->dispatch_ms = SteadyNowMs();
  }
  conn->parser.Reset();

  // The StreamWriter is created for every request; buffered handlers simply
  // never Begin() it.
  std::shared_ptr<StreamWriter> stream(new StreamWriter(
      core_, conn, /*chunked=*/request.version_minor >= 1, keep_alive));
  loop_.Post([this, conn, request = std::move(request), keep_alive,
              stream]() {
    HttpResponse response = handler_(request, stream);
    if (response.status != 0) {
      if (stream->begun_.load(std::memory_order_acquire)) {
        SMARTDD_LOG(Warning) << "handler both streamed and returned a "
                                "buffered response; keeping the stream";
        return;
      }
      stream->ended_.store(true, std::memory_order_release);
      FinishRequest(*core_, conn, response, keep_alive);
    }
    // Streaming marker: StreamWriter::End() completes the request.
  });
}

}  // namespace smartdd::net
