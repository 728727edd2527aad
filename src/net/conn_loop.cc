#include "net/conn_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"

namespace smartdd::net {

namespace {

/// epoll user-data keys for the two non-connection fds; connection ids
/// start above them.
constexpr uint64_t kListenKey = 0;
constexpr uint64_t kEventKey = 1;
constexpr uint64_t kFirstConnId = 2;

constexpr int kEpollWaitMs = 50;
/// How long graceful shutdown keeps flushing completed output after the
/// in-flight drain.
constexpr uint64_t kFinalFlushMs = 2000;

}  // namespace

uint64_t SteadyNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- LoopCore ------------------------------------------------------------

void LoopCore::MarkDirty(uint64_t id) {
  std::lock_guard<std::mutex> lock(dirty_mu_);
  dirty_.push_back(id);
  PokeLocked();
}

void LoopCore::Poke() {
  std::lock_guard<std::mutex> lock(dirty_mu_);
  PokeLocked();
}

void LoopCore::PokeLocked() {
  if (event_fd_ >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
  }
}

void LoopCore::DecrementInflight() {
  if (inflight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

// --- ConnLoop ------------------------------------------------------------

ConnLoop::ConnLoop(ConnLoopConfig config, std::shared_ptr<LoopCore> core,
                   ConnProtocol& protocol)
    : config_(std::move(config)), core_(std::move(core)), protocol_(protocol) {
  SMARTDD_CHECK(config_.connections_total != nullptr &&
                config_.connections_open != nullptr);
}

ConnLoop::~ConnLoop() { Shutdown(); }

Status ConnLoop::Start() {
  SMARTDD_CHECK(!running_.load()) << "server started twice";

  // Belt and braces with the MSG_NOSIGNAL on every ::send: a peer that
  // slams its socket shut mid-response must surface as EPIPE (handled),
  // never as a process-killing SIGPIPE — some libc paths (and any future
  // write site missing the flag) would otherwise raise it.
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrFormat("bad bind address '%s'", config_.bind_address.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    Status status = Status::IOError(
        StrFormat("bind/listen %s:%u: %s", config_.bind_address.c_str(),
                  unsigned{config_.port}, std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  int event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || event_fd < 0) {
    Status status = Status::IOError("epoll_create1/eventfd failed");
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
    if (event_fd >= 0) ::close(event_fd);
    return status;
  }
  {
    std::lock_guard<std::mutex> lock(core_->dirty_mu_);
    core_->event_fd_ = event_fd;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kEventKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd, &ev);

  stop_.store(false);
  draining_.store(false);
  abort_flush_.store(false);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this]() { EventLoop(); });
  const size_t workers = std::max<size_t>(1, config_.worker_threads);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
  return Status::OK();
}

void ConnLoop::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  draining_.store(true, std::memory_order_release);
  core_->Poke();  // the loop closes the listener and runs OnDrain

  {
    std::unique_lock<std::mutex> lock(core_->drain_mu_);
    core_->drain_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.drain_timeout_ms), [this]() {
          return core_->inflight.load(std::memory_order_acquire) == 0;
        });
  }
  JoinThreads();
}

void ConnLoop::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);
  abort_flush_.store(true, std::memory_order_release);
  JoinThreads();
}

void ConnLoop::JoinThreads() {
  stop_.store(true, std::memory_order_release);
  core_->Poke();
  loop_thread_.join();

  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    workers_stop_ = true;
  }
  tasks_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();

  // Close the wakeup fds only after every thread that could poke them is
  // gone; a straggler completion handle (an expansion that outlived the
  // drain window) co-owns the core, takes dirty_mu_, sees -1, and skips
  // the write — and touches nothing on the (possibly destroyed) server.
  {
    std::lock_guard<std::mutex> lock(core_->dirty_mu_);
    if (core_->event_fd_ >= 0) ::close(core_->event_fd_);
    core_->event_fd_ = -1;
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void ConnLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks_.push_back(std::move(task));
  }
  tasks_cv_.notify_one();
}

void ConnLoop::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(tasks_mu_);
      tasks_cv_.wait(lock,
                     [this]() { return workers_stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // workers_stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

bool ConnLoop::AnyPendingOut() {
  for (auto& [id, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->out.empty()) return true;
  }
  return false;
}

void ConnLoop::EventLoop() {
  std::vector<epoll_event> events(64);
  bool listener_open = true;
  bool drain_started = false;
  uint64_t flush_deadline = 0;
  while (true) {
    if (stop_.load(std::memory_order_acquire)) {
      if (abort_flush_.load(std::memory_order_acquire)) break;
      // Final-flush phase: in-flight work has drained (or timed out), but
      // completed responses may still sit in connection buffers. Keep the
      // loop pumping briefly so graceful shutdown delivers them instead of
      // truncating the last response of every connection.
      if (flush_deadline == 0) flush_deadline = SteadyNowMs() + kFinalFlushMs;
      if (!AnyPendingOut() || SteadyNowMs() >= flush_deadline) break;
    }
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), kEpollWaitMs);
    if (draining_.load(std::memory_order_acquire)) {
      if (listener_open) {
        // Graceful shutdown step 1: stop accepting. Live connections keep
        // flushing and in-flight work keeps running until drained.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
        listener_open = false;
      }
      if (!drain_started && !abort_flush_.load(std::memory_order_acquire)) {
        drain_started = true;
        // Iterate a copy: FlushOut may Close, which erases from conns_.
        std::vector<std::shared_ptr<LoopConn>> live;
        for (auto& [id, conn] : conns_) live.push_back(conn);
        for (auto& conn : live) {
          protocol_.OnDrain(*conn);
          FlushOut(conn);
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      uint64_t key = events[i].data.u64;
      if (key == kListenKey) {
        if (listener_open) AcceptAll();
      } else if (key == kEventKey) {
        uint64_t drainer;
        while (::read(core_->event_fd_, &drainer, sizeof(drainer)) > 0) {
        }
      } else {
        auto it = conns_.find(key);
        if (it != conns_.end()) {
          // Copy the owner: HandleIo may Close, which erases the map entry
          // this iterator points at — a reference into the map would
          // dangle mid-call.
          std::shared_ptr<LoopConn> conn = it->second;
          HandleIo(conn, events[i].events);
        }
      }
    }
    // Serve wakeups from workers and completion handles (response bytes
    // ready, stream chunks, completions).
    std::vector<uint64_t> dirty;
    {
      std::lock_guard<std::mutex> lock(core_->dirty_mu_);
      dirty.swap(core_->dirty_);
    }
    for (uint64_t id : dirty) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      std::shared_ptr<LoopConn> conn = it->second;
      bool abort;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        abort = conn->abort_conn;
      }
      if (abort) {
        Close(conn);
        continue;
      }
      protocol_.OnWake(conn);
      FlushOut(conn);
    }
    SweepIdle();
  }
  // Loop exit: tear down whatever is left (drain timeout stragglers).
  std::vector<std::shared_ptr<LoopConn>> leftover;
  leftover.reserve(conns_.size());
  for (auto& [id, conn] : conns_) leftover.push_back(conn);
  for (auto& conn : leftover) Close(conn);
  if (listener_open && listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ConnLoop::AcceptAll() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    config_.connections_total->Inc();
    if (conns_.size() >= config_.max_connections ||
        draining_.load(std::memory_order_acquire)) {
      // Connection-level shedding: the protocol's one-shot reply, best
      // effort, never blocking the loop.
      std::string bytes = protocol_.OnShed();
      if (!bytes.empty()) {
        [[maybe_unused]] ssize_t n =
            ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      }
      ::close(fd);
      continue;
    }
    uint64_t id = kFirstConnId + next_conn_id_++;
    std::shared_ptr<LoopConn> conn = protocol_.NewConn(fd, id);
    conn->last_activity_ms = SteadyNowMs();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conn->armed_mask = EPOLLIN;
    conns_.emplace(id, conn);
    open_conns_.fetch_add(1, std::memory_order_acq_rel);
    config_.connections_open->Add(1);
    FlushOut(conn);  // a greeting NewConn queued
  }
}

void ConnLoop::HandleIo(const std::shared_ptr<LoopConn>& conn,
                        uint32_t events) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    Close(conn);
    return;
  }
  if (events & EPOLLIN) {
    // Bounded input buffering: past the cap the loop stops reading (the
    // EPOLLIN re-arm in FlushOut drops) and TCP backpressure holds the peer.
    char buf[16384];
    while (conn->in.size() < config_.input_cap) {
      ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (r > 0) {
        conn->in.append(buf, static_cast<size_t>(r));
        conn->last_activity_ms = SteadyNowMs();
      } else if (r == 0) {
        conn->read_eof = true;
        break;
      } else if (errno == EINTR) {
        continue;
      } else {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          Close(conn);
          return;
        }
        break;
      }
    }
    protocol_.OnInput(conn);
    if (conn->closed.load(std::memory_order_acquire)) return;
    if (conn->read_eof && protocol_.CloseOnEof(*conn)) {
      Close(conn);
      return;
    }
  }
  FlushOut(conn);
}

void ConnLoop::FlushOut(const std::shared_ptr<LoopConn>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  bool io_error = false;
  bool out_empty;
  bool close_after;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (!conn->out.empty()) {
      ssize_t w = ::send(conn->fd, conn->out.data(),
                         std::min<size_t>(conn->out.size(), 1 << 16),
                         MSG_NOSIGNAL);
      if (w > 0) {
        // erase-from-front is O(pending); pending is capped by the
        // protocols' output-buffer caps so this stays cheap at our scale.
        conn->out.erase(0, static_cast<size_t>(w));
        conn->last_activity_ms = SteadyNowMs();
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        io_error = true;
        break;
      }
    }
    out_empty = conn->out.empty();
    close_after = conn->close_after_flush;
  }
  if (io_error || (out_empty && close_after) ||
      (out_empty && conn->read_eof && !protocol_.Busy(*conn))) {
    Close(conn);
    return;
  }

  // Re-arm epoll for exactly what this connection still needs.
  uint32_t mask = 0;
  if (!conn->read_eof && conn->in.size() < config_.input_cap) mask |= EPOLLIN;
  if (!out_empty) mask |= EPOLLOUT;
  if (mask != conn->armed_mask) {
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->armed_mask = mask;
  }
}

void ConnLoop::Close(const std::shared_ptr<LoopConn>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  protocol_.OnClose(*conn);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->id);
  open_conns_.fetch_sub(1, std::memory_order_acq_rel);
  config_.connections_open->Sub(1);
}

void ConnLoop::SweepIdle() {
  const uint64_t now_ms = SteadyNowMs();
  std::vector<std::pair<std::shared_ptr<LoopConn>, std::string>> victims;
  for (auto& [id, conn] : conns_) {
    std::string farewell;
    if (protocol_.OnIdle(*conn, now_ms, &farewell)) {
      victims.emplace_back(conn, std::move(farewell));
    }
  }
  for (auto& [conn, farewell] : victims) {
    if (!farewell.empty()) {
      [[maybe_unused]] ssize_t n =
          ::send(conn->fd, farewell.data(), farewell.size(), MSG_NOSIGNAL);
    }
    Close(conn);
  }
}

}  // namespace smartdd::net
