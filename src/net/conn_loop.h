#ifndef SMARTDD_NET_CONN_LOOP_H_
#define SMARTDD_NET_CONN_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace smartdd::net {

/// Milliseconds on the steady clock (latency stamps, idle bookkeeping).
uint64_t SteadyNowMs();

/// Shared state co-owned by a ConnLoop and every completion handle a
/// protocol hands out (StreamWriter, rpc::Responder): in-flight accounting
/// and event-loop wakeups. A handle finishing after its server is gone — an
/// expansion that outlived the shutdown drain window — touches only memory
/// it co-owns, never the destroyed server. Protocols derive from it to add
/// their own completion-side fields.
struct LoopCore {
  /// Queues connection `id` for event-loop attention (ConnProtocol::OnWake,
  /// then a flush) and pokes the loop. Safe from any thread, at any point
  /// in the server's lifetime: after shutdown the wakeup fd reads -1 under
  /// the same lock and the poke is skipped.
  void MarkDirty(uint64_t id);

  /// Releases one in-flight slot (taken with `inflight.fetch_add`) and
  /// wakes a Shutdown() waiting for the drain.
  void DecrementInflight();

  std::atomic<size_t> inflight{0};

 private:
  friend class ConnLoop;
  /// Wakes the loop without queueing a connection.
  void Poke();
  void PokeLocked();  // requires dirty_mu_

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::mutex dirty_mu_;
  std::vector<uint64_t> dirty_;
  /// Wakeup fd; -1 before Start and once shutdown closes it (lifetime
  /// guarded by dirty_mu_).
  int event_fd_ = -1;
};

/// Per-connection state the loop itself reads and writes. Protocols derive
/// their connection type from it. The unannotated fields belong to the
/// event-loop thread alone; everything a worker or completion handle
/// touches sits behind `mu` or is atomic.
struct LoopConn {
  LoopConn(int fd, uint64_t id) : fd(fd), id(id) {}

  const int fd;
  const uint64_t id;

  // --- event-loop thread only ---
  std::string in;                ///< received bytes not yet consumed
  bool read_eof = false;         ///< peer half-closed its write side
  uint32_t armed_mask = 0;       ///< events currently registered with epoll
  uint64_t last_activity_ms = 0; ///< accept, or last byte in or out

  // --- shared with workers / completion handles ---
  std::atomic<bool> closed{false};
  std::mutex mu;
  std::string out;                  ///< bytes awaiting the socket
  bool close_after_flush = false;   ///< close once `out` drains
  bool abort_conn = false;          ///< discard `out` and close now
};

/// What a wire protocol plugs into a ConnLoop. Every hook runs on the
/// event-loop thread.
class ConnProtocol {
 public:
  virtual ~ConnProtocol() = default;

  /// The state for a freshly accepted socket. May queue greeting bytes in
  /// `out`; the loop flushes them right after registering the connection.
  virtual std::shared_ptr<LoopConn> NewConn(int fd, uint64_t id) = 0;

  /// Called for an accept turned away by the connection cap or a drain;
  /// returns the bytes sent (best effort) before the close, or "".
  virtual std::string OnShed() = 0;

  /// New bytes sit in `conn->in`: parse, consume, dispatch.
  virtual void OnInput(const std::shared_ptr<LoopConn>& conn) = 0;

  /// A completion handle marked the connection dirty; runs before the
  /// loop flushes it.
  virtual void OnWake(const std::shared_ptr<LoopConn>& /*conn*/) {}

  /// Whether the connection has work in flight. A half-closed connection
  /// closes once its output drains and this turns false.
  virtual bool Busy(LoopConn& conn) = 0;

  /// Asked after OnInput once the peer half-closed: true closes the
  /// connection at once; false lets in-flight work finish first.
  virtual bool CloseOnEof(LoopConn& conn) = 0;

  /// Graceful shutdown began; runs once per live connection before a flush.
  virtual void OnDrain(LoopConn& /*conn*/) {}

  /// The connection is closing (already marked closed, fd still open).
  virtual void OnClose(LoopConn& /*conn*/) {}

  /// Asked by the idle sweep on every loop turn whether `conn` has
  /// overstayed; true closes it after sending `*farewell` (best effort).
  virtual bool OnIdle(LoopConn& conn, uint64_t now_ms,
                      std::string* farewell) = 0;
};

/// The loop's settings, filled from each server's own options.
struct ConnLoopConfig {
  std::string bind_address;
  uint16_t port = 0;
  size_t worker_threads = 4;
  /// Accepts beyond this many live connections are shed (ConnProtocol::OnShed).
  size_t max_connections = 64;
  /// The loop stops reading a connection whose unconsumed input reaches
  /// this, so TCP backpressure holds the peer.
  size_t input_cap = 0;
  /// How long Shutdown() waits for in-flight work before closing anyway.
  uint64_t drain_timeout_ms = 10000;
  /// The server's accepted / open connection instruments.
  Counter* connections_total = nullptr;
  Gauge* connections_open = nullptr;
};

/// The connection machinery both wire protocols (HTTP/1.1 in HttpServer,
/// SDRP in rpc::Server) run on: one epoll event-loop thread owns every
/// socket (accept, bounded reads, flush with exact re-arm, idle sweep,
/// close) and a small worker pool runs posted tasks, so a slow peer can
/// never wedge the loop and a slow handler can never wedge other
/// connections' I/O. Protocol differences enter only through a
/// ConnProtocol; the loop never branches on which protocol it serves.
class ConnLoop {
 public:
  /// `core` is co-owned with the protocol's completion handles; `protocol`
  /// must outlive every thread the loop runs (call Shutdown or Stop first).
  ConnLoop(ConnLoopConfig config, std::shared_ptr<LoopCore> core,
           ConnProtocol& protocol);
  /// Calls Shutdown() if still running.
  ~ConnLoop();

  ConnLoop(const ConnLoop&) = delete;
  ConnLoop& operator=(const ConnLoop&) = delete;

  /// Binds, listens, and spawns the event loop + workers. IOError on any
  /// socket failure (port in use), InvalidArgument on a bad address.
  Status Start();

  /// Graceful shutdown: stops accepting, runs OnDrain on live connections,
  /// waits up to drain_timeout_ms for in-flight work, flushes pending
  /// output for up to 2 s, then closes everything and joins. Idempotent.
  void Shutdown();

  /// Abrupt stop: closes every connection now, abandoning buffered output
  /// and in-flight work (its completion handles outlive the loop safely).
  void Stop();

  /// Queues a task for the worker pool.
  void Post(std::function<void()> task);

  /// Closes a connection. Event-loop thread only.
  void Close(const std::shared_ptr<LoopConn>& conn);

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  size_t open_connections() const {
    return open_conns_.load(std::memory_order_acquire);
  }

 private:
  void EventLoop();
  void WorkerLoop();
  void AcceptAll();
  void HandleIo(const std::shared_ptr<LoopConn>& conn, uint32_t events);
  /// Writes as much pending output as the socket accepts; arms EPOLLOUT
  /// when it blocks.
  void FlushOut(const std::shared_ptr<LoopConn>& conn);
  void SweepIdle();
  bool AnyPendingOut();
  void JoinThreads();

  const ConnLoopConfig config_;
  const std::shared_ptr<LoopCore> core_;
  ConnProtocol& protocol_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  std::mutex tasks_mu_;
  std::condition_variable tasks_cv_;
  std::deque<std::function<void()>> tasks_;
  bool workers_stop_ = false;

  /// Event-loop-thread-only connection table.
  std::unordered_map<uint64_t, std::shared_ptr<LoopConn>> conns_;
  uint64_t next_conn_id_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> abort_flush_{false};
  std::atomic<size_t> open_conns_{0};
};

}  // namespace smartdd::net

#endif  // SMARTDD_NET_CONN_LOOP_H_
