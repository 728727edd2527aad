#include "rpc/server.h"

#include "api/codec.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace smartdd::rpc {

using net::SteadyNowMs;

namespace {

/// Bounded input: a peer cannot buffer more than one max frame plus a read
/// quantum before the loop parses it down.
constexpr size_t kInputCap = kMaxFramePayload + kFrameHeaderBytes + 16384;

/// How long an accepted peer has to send its handshake before the idle
/// sweep closes it, so silent sockets cannot hold connection slots. Equal
/// to the default ChannelOptions::connect_timeout_ms, the budget a Channel
/// gives the server's own greeting.
constexpr uint64_t kHandshakeTimeoutMs = 2000;

}  // namespace

/// The LoopCore every live Responder co-owns, plus the output cap and call
/// metrics, so a call finishing after the server object is gone — an
/// expansion that outlived the shutdown drain window — touches only memory
/// it co-owns.
struct RpcServerCore : net::LoopCore {
  explicit RpcServerCore(size_t out_buffer_cap)
      : max_out_buffer_bytes(out_buffer_cap),
        call_seconds(MetricsRegistry::Default().GetHistogram(
            "smartdd_rpc_server_call_seconds",
            "Dispatch-to-finish latency of handled RPC calls",
            Histogram::LatencySeconds())),
        stream_frames_total(MetricsRegistry::Default().GetCounter(
            "smartdd_rpc_server_stream_frames_total",
            "STREAM frames sent to RPC peers")) {}

  const size_t max_out_buffer_bytes;
  Histogram& call_seconds;
  Counter& stream_frames_total;
};

/// Per-connection SDRP state on top of the loop's. The unannotated fields
/// belong to the event-loop thread alone (handshake, frame reassembly);
/// `calls` sits behind `mu`.
struct RpcConn : net::LoopConn {
  RpcConn(int fd, uint64_t id) : LoopConn(fd, id) {}

  // --- event-loop thread only ---
  uint64_t accepted_ms = 0;
  bool handshaken = false;

  // --- shared with workers / responders (guarded by mu) ---
  /// Live calls' cancel flags, keyed by call_id. A CANCEL frame or
  /// connection death flips the flag; Finish erases the entry.
  std::unordered_map<uint64_t, std::shared_ptr<std::atomic<bool>>> calls;
};

// --- Responder -----------------------------------------------------------

Responder::Responder(std::shared_ptr<RpcServerCore> core,
                     std::shared_ptr<RpcConn> conn, uint64_t call_id,
                     CallPayload call)
    : core_(std::move(core)),
      conn_(std::move(conn)),
      call_id_(call_id),
      line_(std::move(call.line)),
      wants_stream_(call.wants_stream),
      cancel_flag_(std::make_shared<std::atomic<bool>>(false)),
      dispatch_ms_(SteadyNowMs()) {
  {
    std::lock_guard<std::mutex> lock(conn_->mu);
    conn_->calls[call_id_] = cancel_flag_;
  }
  // Re-arm the caller's remaining budget on this side of the wire and tie
  // it to the cancel state, so one expired() poll inside the engine
  // observes both deadline expiry and peer cancellation.
  deadline_ = (call.deadline_ms > 0 ? Deadline::AfterMillis(call.deadline_ms)
                                    : Deadline())
                  .WithCancelFlag(cancel_flag_.get());
}

Responder::~Responder() {
  // Safety net: a handler that never finished must not hang its caller or
  // leak the in-flight slot.
  if (!finished_.load(std::memory_order_acquire)) {
    ResultPayload result;
    result.code = StatusCode::kInternal;
    result.json =
        "{\"ok\":false,\"error\":{\"code\":\"INTERNAL\",\"message\":"
        "\"handler abandoned the call\"}}";
    Finish(result);
  }
}

bool Responder::cancelled() const {
  return cancel_flag_->load(std::memory_order_acquire) ||
         conn_->closed.load(std::memory_order_acquire);
}

bool Responder::Stream(std::string_view step_json) {
  if (finished_.load(std::memory_order_acquire) || cancelled()) return false;
  StreamPayload step;
  step.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  step.json.assign(step_json);
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn_->mu);
    if (conn_->out.size() + step.json.size() > core_->max_out_buffer_bytes) {
      overflow = true;
      conn_->abort_conn = true;  // the peer stopped reading; cut it loose
    } else {
      AppendFrame(conn_->out, FrameType::kStream, call_id_,
                  EncodeStreamPayload(step));
    }
  }
  if (overflow) {
    cancel_flag_->store(true, std::memory_order_release);
    core_->MarkDirty(conn_->id);
    return false;
  }
  core_->stream_frames_total.Inc();
  core_->MarkDirty(conn_->id);
  return true;
}

void Responder::Finish(const ResultPayload& result) {
  if (finished_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(conn_->mu);
    conn_->calls.erase(call_id_);
    if (!conn_->closed.load(std::memory_order_acquire) && !conn_->abort_conn) {
      AppendFrame(conn_->out, FrameType::kResult, call_id_,
                  EncodeResultPayload(result));
    }
  }
  core_->call_seconds.Observe(
      static_cast<double>(SteadyNowMs() - dispatch_ms_) / 1e3);
  core_->DecrementInflight();
  core_->MarkDirty(conn_->id);
}

// --- Server --------------------------------------------------------------

Server::Server(CallHandler handler, ServerOptions options)
    : handler_(std::move(handler)),
      options_(std::move(options)),
      core_(std::make_shared<RpcServerCore>(options_.max_out_buffer_bytes)),
      calls_total_(MetricsRegistry::Default().GetCounter(
          "smartdd_rpc_server_calls_total", "RPC calls dispatched")),
      protocol_errors_total_(MetricsRegistry::Default().GetCounter(
          "smartdd_rpc_server_protocol_errors_total",
          "Connections dropped for handshake or framing violations")),
      loop_(
          net::ConnLoopConfig{
              options_.bind_address, options_.port, options_.worker_threads,
              options_.max_connections, kInputCap, options_.drain_timeout_ms,
              &MetricsRegistry::Default().GetCounter(
                  "smartdd_rpc_server_connections_total",
                  "RPC connections accepted"),
              &MetricsRegistry::Default().GetGauge(
                  "smartdd_rpc_server_connections_open",
                  "Currently open RPC connections")},
          core_, *this) {
  SMARTDD_CHECK(handler_ != nullptr);
}

Server::~Server() { Shutdown(); }

size_t Server::inflight_calls() const {
  return core_->inflight.load(std::memory_order_acquire);
}

Status Server::Start() { return loop_.Start(); }

void Server::Shutdown() { loop_.Shutdown(); }

void Server::Stop() { loop_.Stop(); }

std::shared_ptr<net::LoopConn> Server::NewConn(int fd, uint64_t id) {
  auto conn = std::make_shared<RpcConn>(fd, id);
  conn->accepted_ms = SteadyNowMs();
  // Both sides greet eagerly: our preamble goes out before any frame,
  // and the peer's must arrive before any frame is parsed.
  conn->out = EncodeHandshake();
  return conn;
}

// A connection past the cap is closed without a greeting.
std::string Server::OnShed() { return {}; }

bool Server::Busy(net::LoopConn& conn) {
  auto& rpc_conn = static_cast<RpcConn&>(conn);
  std::lock_guard<std::mutex> lock(rpc_conn.mu);
  return !rpc_conn.calls.empty();
}

// Peer is gone: close now, cancelling whatever it had in flight (OnClose),
// unless a partial frame is still buffered.
bool Server::CloseOnEof(net::LoopConn& conn) { return conn.in.empty(); }

void Server::OnDrain(net::LoopConn& conn) {
  std::lock_guard<std::mutex> lock(conn.mu);
  AppendFrame(conn.out, FrameType::kGoAway, 0, "draining");
}

void Server::OnClose(net::LoopConn& conn) {
  // Calls still running against this connection observe cancellation at
  // their next deadline poll and their Finish becomes a no-op write.
  auto& rpc_conn = static_cast<RpcConn&>(conn);
  std::lock_guard<std::mutex> lock(rpc_conn.mu);
  for (auto& [call_id, flag] : rpc_conn.calls) {
    flag->store(true, std::memory_order_release);
  }
}

bool Server::OnIdle(net::LoopConn& conn, uint64_t now_ms, std::string*) {
  // Handshaken connections are never swept: a router's one multiplexed
  // connection may sit quiet between clicks for as long as it likes.
  auto& rpc_conn = static_cast<RpcConn&>(conn);
  return !rpc_conn.handshaken &&
         now_ms - rpc_conn.accepted_ms >= kHandshakeTimeoutMs;
}

void Server::OnInput(const std::shared_ptr<net::LoopConn>& base) {
  auto conn = std::static_pointer_cast<RpcConn>(base);
  if (!conn->handshaken) {
    if (conn->in.size() < kHandshakeBytes) return;
    auto version = DecodeHandshake(conn->in);
    if (!version.ok()) {
      protocol_errors_total_.Inc();
      SMARTDD_LOG(Warning) << "rpc: dropping peer: "
                           << version.status().ToString();
      loop_.Close(conn);
      return;
    }
    conn->in.erase(0, kHandshakeBytes);
    conn->handshaken = true;
  }
  while (!conn->closed.load(std::memory_order_acquire)) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    DecodeState state = DecodeFrame(conn->in, &frame, &consumed, &error);
    if (state == DecodeState::kNeedMore) break;
    if (state == DecodeState::kError) {
      protocol_errors_total_.Inc();
      SMARTDD_LOG(Warning) << "rpc: dropping peer: " << error;
      loop_.Close(conn);
      return;
    }
    conn->in.erase(0, consumed);
    switch (frame.type) {
      case FrameType::kCall:
        DispatchCall(conn, std::move(frame));
        break;
      case FrameType::kCancel: {
        std::lock_guard<std::mutex> lock(conn->mu);
        auto it = conn->calls.find(frame.call_id);
        if (it != conn->calls.end()) {
          it->second->store(true, std::memory_order_release);
        }
        break;
      }
      case FrameType::kGoAway:
        // A client saying goodbye: stop reading new frames; the
        // connection closes once its output drains and calls finish.
        conn->read_eof = true;
        break;
      default:
        // RESULT/STREAM from a client are nonsense.
        protocol_errors_total_.Inc();
        loop_.Close(conn);
        return;
    }
  }
}

void Server::DispatchCall(const std::shared_ptr<RpcConn>& conn, Frame frame) {
  calls_total_.Inc();
  auto call = DecodeCallPayload(frame.payload);
  core_->inflight.fetch_add(1, std::memory_order_acq_rel);
  std::shared_ptr<Responder> responder;
  if (call.ok()) {
    responder.reset(new Responder(core_, conn, frame.call_id,
                                  std::move(*call)));
  } else {
    // A malformed CALL still earns a coded RESULT: create the responder
    // with an empty line and fail it on the worker, keeping all result
    // serialization on one path.
    responder.reset(new Responder(core_, conn, frame.call_id, CallPayload{}));
  }
  Status defect = call.ok() ? Status::OK() : call.status();
  loop_.Post([this, responder, defect = std::move(defect)]() {
    Status blocked = defect;
    if (blocked.ok()) blocked = InjectFault("rpc.server.dispatch");
    if (!blocked.ok()) {
      ResultPayload result;
      result.code = blocked.code();
      api::Response response;
      response.status = blocked;
      result.json = api::EncodeResponse(response);
      responder->Finish(result);
      return;
    }
    handler_(responder);
  });
}

}  // namespace smartdd::rpc
