#ifndef SMARTDD_COMMON_TASK_SCHEDULER_H_
#define SMARTDD_COMMON_TASK_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace smartdd {

/// A fair, queue-per-client scheduler for coarse-grained background tasks
/// (prefetch passes, count refreshes), layered on top of the data-parallel
/// ThreadPool: a task may itself fan out over the shared pool via
/// ParallelFor; this class only decides *whose* task runs next.
///
/// Fairness policy: every client (an ExplorationSession, in the engine) owns
/// a queue. A queue runs its tasks strictly in FIFO order, at most one at a
/// time — exactly the serialization a dedicated per-session thread would
/// provide, without the thread. Across queues the workers adopt the next
/// runnable queue round-robin, so a client with a deep backlog cannot starve
/// another client's single task.
///
/// Worker threads are spawned lazily on the first Submit, so schedulers
/// owned by sessions that never run background work cost nothing.
class TaskScheduler {
 public:
  using QueueId = uint64_t;
  /// Never a live queue; Drain/DestroyQueue of it are no-ops.
  static constexpr QueueId kInvalidQueue = 0;

  /// `num_workers` caps how many tasks (across all queues) run at once;
  /// clamped to at least 1.
  explicit TaskScheduler(size_t num_workers = 1);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Registers a new task queue. Queue ids are never reused.
  QueueId CreateQueue();

  /// Drains the queue (blocking), then removes it. Safe when tasks are
  /// still pending; no-op for kInvalidQueue or an already-destroyed id.
  /// Must not race with a concurrent Drain/DestroyQueue of the same id.
  void DestroyQueue(QueueId id);

  /// Enqueues `fn` on queue `id` (which must be live). Returns immediately;
  /// the task runs FIFO with respect to other tasks of the same queue.
  void Submit(QueueId id, std::function<Status()> fn);

  /// Blocks until queue `id` has no queued or running task; returns the
  /// status of the queue's most recently completed task (OK when none ran,
  /// or for kInvalidQueue / an unknown id). Must not race with a concurrent
  /// DestroyQueue of the same id. Re-entrant: when called from within a task
  /// of queue `id` it returns immediately (FIFO + one-in-flight means every
  /// earlier task already finished) instead of deadlocking on itself.
  Status Drain(QueueId id);

  /// Workers actually spawned so far (0 until the first Submit).
  size_t num_workers() const;

  /// Live queues (deferred self-destroys count until actually erased).
  size_t num_queues() const;

  /// Tasks queued or running across all queues.
  size_t pending_tasks() const;

 private:
  struct Queue {
    QueueId id = kInvalidQueue;
    std::deque<std::function<Status()>> tasks;
    bool running = false;
    /// Set by DestroyQueue when called from inside this queue's own task:
    /// the worker erases the queue once it has no running or queued task.
    bool destroy_on_idle = false;
    Status last_status;
  };

  void WorkerLoop();
  /// Next queue with work and no task in flight, round-robin from the
  /// cursor. Returns nullptr when nothing is runnable. Caller holds mu_.
  Queue* PickRunnableLocked();
  Queue* FindLocked(QueueId id);
  /// Erases queue `id` and repairs the round-robin cursor. Caller holds
  /// mu_; the queue must have no running or queued task.
  void EraseQueueLocked(QueueId id);

  const size_t max_workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for runnable queues
  std::condition_variable idle_cv_;  // Drain/DestroyQueue wait here
  std::vector<std::unique_ptr<Queue>> queues_;  // creation order (stable ptrs)
  size_t rr_cursor_ = 0;   // round-robin start position into queues_
  QueueId next_id_ = 1;
  size_t queued_or_running_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;  // lazily spawned, guarded by mu_
};

/// Overrides the stuck-task watchdog threshold (normally the
/// SMARTDD_STUCK_TASK_MS env var, default 10000). The watchdog keeps the
/// smartdd_scheduler_stuck_tasks gauge at the number of currently-running
/// scheduler tasks older than this threshold.
void SetStuckTaskThresholdMsForTest(uint64_t ms);

}  // namespace smartdd

#endif  // SMARTDD_COMMON_TASK_SCHEDULER_H_
