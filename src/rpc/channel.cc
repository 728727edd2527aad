#include "rpc/channel.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace smartdd::rpc {

namespace {

uint64_t NowMsSteady() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Non-blocking dial with a budget, then back to blocking mode (the
/// channel's socket I/O is blocking: sends are short and serialized, reads
/// live on a dedicated thread).
Result<int> DialBlocking(const std::string& host, uint16_t port,
                         double timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(StrFormat("bad host '%s'", host.c_str()));
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    Status status = Status::Unavailable(StrFormat(
        "connect %s:%u: %s", host.c_str(), unsigned{port},
        std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (rc < 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    int err = 0;
    socklen_t len = sizeof(err);
    if (ready > 0) ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (ready <= 0 || err != 0) {
      Status status = Status::Unavailable(StrFormat(
          "connect %s:%u: %s", host.c_str(), unsigned{port},
          ready <= 0 ? "timed out" : std::strerror(err)));
      ::close(fd);
      return status;
    }
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking read of exactly `n` bytes with a poll budget.
bool ReadExactly(int fd, char* buf, size_t n, double timeout_ms) {
  size_t got = 0;
  uint64_t give_up = NowMsSteady() + static_cast<uint64_t>(timeout_ms);
  while (got < n) {
    uint64_t now = NowMsSteady();
    if (now >= give_up) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(give_up - now)) <= 0) return false;
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
    } else if (r < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

Channel::Channel(ChannelOptions options)
    : options_(std::move(options)),
      target_(StrFormat("%s:%u", options_.host.c_str(),
                        unsigned{options_.port})),
      calls_total_(MetricsRegistry::Default().GetCounter(
          "smartdd_rpc_client_calls_total", "RPC calls issued")),
      errors_total_(MetricsRegistry::Default().GetCounter(
          "smartdd_rpc_client_errors_total",
          "RPC calls failed at the transport (dead peer, timeout)")),
      reconnects_total_(MetricsRegistry::Default().GetCounter(
          "smartdd_rpc_client_reconnects_total",
          "Connections dialed beyond each channel's first")),
      call_seconds_(MetricsRegistry::Default().GetHistogram(
          "smartdd_rpc_client_call_seconds",
          "Send-to-result latency of RPC calls",
          Histogram::LatencySeconds())) {}

Channel::~Channel() { Close(); }

bool Channel::connected() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return fd_ >= 0 && !reader_done_ && !goaway_;
}

Status Channel::Connect() {
  std::lock_guard<std::mutex> lock(state_mu_);
  ReapReaderLocked();
  if (fd_ >= 0) return Status::OK();
  return ConnectLocked();
}

Status Channel::ConnectLocked() {
  auto dialed =
      DialBlocking(options_.host, options_.port, options_.connect_timeout_ms);
  if (!dialed.ok()) return dialed.status();
  int fd = *dialed;

  // Greetings are eager on both ends: write ours, demand the peer's before
  // the first frame.
  std::string hello = EncodeHandshake();
  if (::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(hello.size())) {
    ::close(fd);
    return Status::Unavailable(
        StrFormat("%s: handshake send failed", target_.c_str()));
  }
  char buf[kHandshakeBytes];
  if (!ReadExactly(fd, buf, sizeof(buf), options_.connect_timeout_ms)) {
    ::close(fd);
    return Status::Unavailable(
        StrFormat("%s: no handshake from peer", target_.c_str()));
  }
  auto version = DecodeHandshake(std::string_view(buf, sizeof(buf)));
  if (!version.ok()) {
    ::close(fd);
    return version.status();
  }

  if (connected_once_) reconnects_total_.Inc();
  connected_once_ = true;
  fd_ = fd;
  goaway_ = false;
  reader_done_ = false;
  reader_ = std::thread([this, fd]() { ReaderLoop(fd); });
  return Status::OK();
}

void Channel::ReapReaderLocked() {
  if (reader_done_) {
    if (reader_.joinable()) reader_.join();
    reader_done_ = false;
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
}

void Channel::FailPendingLocked(const Status& status) {
  for (auto& [id, call] : pending_) {
    if (!call->done) {
      call->transport = status;
      call->done = true;
    }
  }
  cv_.notify_all();
}

void Channel::Close() {
  std::unique_lock<std::mutex> lock(state_mu_);
  if (fd_ >= 0 && !reader_done_) {
    // Wake the reader out of recv; it fails the pending calls and flags
    // itself done.
    ::shutdown(fd_, SHUT_RDWR);
    cv_.wait(lock, [this]() { return reader_done_; });
  }
  ReapReaderLocked();
}

void Channel::ReaderLoop(int fd) {
  std::string in;
  char buf[16384];
  Status death = Status::Unavailable(
      StrFormat("%s: connection lost", target_.c_str()));
  while (true) {
    if (Status injected = InjectFault("rpc.client.recv"); !injected.ok()) {
      death = Status::Unavailable(StrFormat(
          "%s: %s", target_.c_str(), injected.message().c_str()));
      break;
    }
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    in.append(buf, static_cast<size_t>(r));
    bool fatal = false;
    while (true) {
      Frame frame;
      size_t consumed = 0;
      std::string error;
      DecodeState state = DecodeFrame(in, &frame, &consumed, &error);
      if (state == DecodeState::kNeedMore) break;
      if (state == DecodeState::kError) {
        death = Status::Unavailable(
            StrFormat("%s: protocol error: %s", target_.c_str(),
                      error.c_str()));
        fatal = true;
        break;
      }
      in.erase(0, consumed);
      if (frame.type == FrameType::kGoAway) {
        std::lock_guard<std::mutex> lock(state_mu_);
        goaway_ = true;
        continue;
      }
      if (frame.type == FrameType::kStream) {
        std::shared_ptr<PendingCall> call;
        {
          std::lock_guard<std::mutex> lock(state_mu_);
          auto it = pending_.find(frame.call_id);
          if (it != pending_.end()) call = it->second;
        }
        if (call && call->on_step && !call->cancelled) {
          auto step = DecodeStreamPayload(frame.payload);
          if (step.ok() && !call->on_step(*step)) {
            call->cancelled = true;
            SendCancel(frame.call_id);
          }
        }
        continue;
      }
      if (frame.type == FrameType::kResult) {
        std::lock_guard<std::mutex> lock(state_mu_);
        auto it = pending_.find(frame.call_id);
        if (it != pending_.end()) {
          it->second->result_bytes = std::move(frame.payload);
          it->second->done = true;
          cv_.notify_all();
        }
        continue;
      }
      // CALL/CANCEL from a server are nonsense.
      death = Status::Unavailable(
          StrFormat("%s: unexpected frame from server", target_.c_str()));
      fatal = true;
      break;
    }
    if (fatal) break;
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  FailPendingLocked(death);
  reader_done_ = true;
  cv_.notify_all();
}

bool Channel::SendBytes(const std::string& bytes) {
  std::lock_guard<std::mutex> lock(send_mu_);
  int fd;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    if (fd_ < 0 || reader_done_) return false;
    fd = fd_;
  }
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t w =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<size_t>(w);
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

void Channel::SendCancel(uint64_t call_id) {
  std::string bytes;
  AppendFrame(bytes, FrameType::kCancel, call_id, "");
  SendBytes(bytes);
}

Result<ResultPayload> Channel::Call(std::string_view line,
                                    const Deadline& deadline) {
  return DoCall(line, deadline, nullptr);
}

Result<ResultPayload> Channel::CallStream(std::string_view line,
                                          const Deadline& deadline,
                                          StreamCallback on_step) {
  return DoCall(line, deadline, std::move(on_step));
}

Result<ResultPayload> Channel::DoCall(std::string_view line,
                                      const Deadline& deadline,
                                      StreamCallback on_step) {
  calls_total_.Inc();
  const uint64_t started_ms = NowMsSteady();

  if (Status injected = InjectFault("rpc.client.send"); !injected.ok()) {
    errors_total_.Inc();
    return Status::Unavailable(StrFormat("%s: %s", target_.c_str(),
                                         injected.message().c_str()));
  }

  CallPayload call;
  call.wants_stream = on_step != nullptr;
  call.line.assign(line);
  if (deadline.active()) {
    double remaining = deadline.remaining_ms();
    if (remaining != std::numeric_limits<double>::infinity()) {
      // Propagate the remaining budget (floored so an already-expired
      // deadline still travels as a tiny positive budget, keeping the
      // "deadline fired" decision at the server where the work runs).
      call.deadline_ms = std::max(remaining, 0.0001);
    }
  }

  uint64_t call_id;
  auto pending = std::make_shared<PendingCall>();
  pending->on_step = std::move(on_step);
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    ReapReaderLocked();
    if (goaway_ && fd_ >= 0) {
      // Peer said GOAWAY: abandon this connection for new calls (in-flight
      // ones finish on the reader) and dial a fresh one.
      ::shutdown(fd_, SHUT_RDWR);
      cv_.wait(lock, [this]() { return reader_done_; });
      ReapReaderLocked();
    }
    if (fd_ < 0) {
      Status status = ConnectLocked();
      if (!status.ok()) {
        errors_total_.Inc();
        return status;
      }
    }
    call_id = next_call_id_++;
    pending_[call_id] = pending;
  }

  std::string bytes;
  AppendFrame(bytes, FrameType::kCall, call_id, EncodeCallPayload(call));
  if (!SendBytes(bytes)) {
    std::lock_guard<std::mutex> lock(state_mu_);
    pending_.erase(call_id);
    errors_total_.Inc();
    return Status::Unavailable(
        StrFormat("%s: send failed", target_.c_str()));
  }

  // Expiry is sampled before `done` on every wake-up, and the wait never
  // outlasts the deadline (the 50 ms tick only bounds how long a cancel
  // flag goes unnoticed): a RESULT first observed after expiry is late and
  // answers DeadlineExceeded, never OK.
  std::unique_lock<std::mutex> lock(state_mu_);
  bool expired = false;
  while (true) {
    expired = deadline.active() && deadline.expired();
    if (expired || pending->done) break;
    const double wait_ms = std::clamp(deadline.remaining_ms(), 0.0, 50.0);
    cv_.wait_for(lock, std::chrono::ceil<std::chrono::microseconds>(
                           std::chrono::duration<double, std::milli>(wait_ms)));
  }
  if (expired) {
    pending_.erase(call_id);
    const bool answered = pending->done;
    lock.unlock();
    if (!answered) SendCancel(call_id);
    errors_total_.Inc();
    return Status::DeadlineExceeded(
        StrFormat("%s: rpc deadline expired", target_.c_str()));
  }
  pending_.erase(call_id);
  Status transport = pending->transport;
  std::string result_bytes = std::move(pending->result_bytes);
  lock.unlock();

  if (!transport.ok()) {
    errors_total_.Inc();
    return transport;
  }
  auto result = DecodeResultPayload(result_bytes);
  if (!result.ok()) {
    errors_total_.Inc();
    return Status::Unavailable(
        StrFormat("%s: malformed RESULT: %s", target_.c_str(),
                  result.status().message().c_str()));
  }
  call_seconds_.Observe(static_cast<double>(NowMsSteady() - started_ms) / 1e3);
  return std::move(*result);
}

}  // namespace smartdd::rpc
