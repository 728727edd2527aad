#include "common/task_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"

namespace smartdd {

namespace {
/// The queue whose task the current thread is executing, if any. Lets Drain
/// detect self-drain: a task draining its own queue would otherwise wait for
/// itself forever.
thread_local const TaskScheduler* tls_running_scheduler = nullptr;
thread_local TaskScheduler::QueueId tls_running_queue =
    TaskScheduler::kInvalidQueue;

/// Process-wide scheduler instruments, aggregated across every
/// TaskScheduler instance (per-engine schedulers, the shared singleton).
struct SchedulerMetrics {
  Gauge& queue_depth;
  Histogram& task_seconds;
};

SchedulerMetrics& Metrics() {
  static SchedulerMetrics* metrics = new SchedulerMetrics{
      MetricsRegistry::Default().GetGauge(
          "smartdd_scheduler_queue_depth",
          "Background tasks queued or running across all task schedulers"),
      MetricsRegistry::Default().GetHistogram(
          "smartdd_scheduler_task_seconds",
          "Run time of background tasks (prefetch passes, expansions)",
          Histogram::LatencySeconds())};
  return *metrics;
}

std::atomic<uint64_t>& StuckThresholdMs() {
  static std::atomic<uint64_t>* threshold = [] {
    uint64_t ms = 10000;
    if (const char* env = std::getenv("SMARTDD_STUCK_TASK_MS")) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && v > 0) ms = v;
    }
    return new std::atomic<uint64_t>(ms);
  }();
  return *threshold;
}

/// Stuck-task watchdog: tracks the start time of every task currently
/// running on any scheduler and keeps the smartdd_scheduler_stuck_tasks
/// gauge at the number of running tasks older than SMARTDD_STUCK_TASK_MS
/// (default 10s). The gauge is refreshed on every task start/finish, so a
/// wedged task becomes visible as soon as any other task transitions —
/// which, under the load that makes wedging matter, is continuously.
class TaskWatchdog {
 public:
  static TaskWatchdog& Instance() {
    static TaskWatchdog* watchdog = new TaskWatchdog;
    return *watchdog;
  }

  uint64_t Enter() {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t token = next_token_++;
    running_[token] = std::chrono::steady_clock::now();
    RefreshLocked();
    return token;
  }

  void Exit(uint64_t token) {
    std::lock_guard<std::mutex> lock(mu_);
    running_.erase(token);
    RefreshLocked();
  }

 private:
  TaskWatchdog()
      : stuck_(MetricsRegistry::Default().GetGauge(
            "smartdd_scheduler_stuck_tasks",
            "Running scheduler tasks older than SMARTDD_STUCK_TASK_MS")) {}

  void RefreshLocked() {
    const auto now = std::chrono::steady_clock::now();
    const auto threshold = std::chrono::milliseconds(
        StuckThresholdMs().load(std::memory_order_relaxed));
    int64_t stuck = 0;
    for (const auto& [token, start] : running_) {
      if (now - start >= threshold) ++stuck;
    }
    stuck_.Set(stuck);
  }

  std::mutex mu_;
  std::map<uint64_t, std::chrono::steady_clock::time_point> running_;
  uint64_t next_token_ = 0;
  Gauge& stuck_;
};

/// Runs one task with its latency observed and the watchdog armed. The
/// scheduler.task fault point fires before the body: latency faults stall
/// inside the watchdog window (so chaos tests can trip the stuck gauge),
/// error faults replace the task's status without running it.
Status RunTimed(const std::function<Status()>& fn) {
  WallTimer timer;
  uint64_t token = TaskWatchdog::Instance().Enter();
  Status status = InjectFault("scheduler.task");
  if (status.ok()) status = fn();
  TaskWatchdog::Instance().Exit(token);
  Metrics().task_seconds.Observe(timer.ElapsedSeconds());
  return status;
}
}  // namespace

void SetStuckTaskThresholdMsForTest(uint64_t ms) {
  StuckThresholdMs().store(ms, std::memory_order_relaxed);
}

TaskScheduler::TaskScheduler(size_t num_workers)
    : max_workers_(std::max<size_t>(1, num_workers)) {}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  // Tasks still queued at shutdown never run; return their depth so the
  // process-wide gauge does not drift.
  if (queued_or_running_ > 0) {
    Metrics().queue_depth.Sub(static_cast<int64_t>(queued_or_running_));
  }
}

TaskScheduler::Queue* TaskScheduler::FindLocked(QueueId id) {
  for (auto& q : queues_) {
    if (q->id == id) return q.get();
  }
  return nullptr;
}

TaskScheduler::Queue* TaskScheduler::PickRunnableLocked() {
  const size_t n = queues_.size();
  for (size_t k = 0; k < n; ++k) {
    Queue* q = queues_[(rr_cursor_ + k) % n].get();
    if (!q->running && !q->tasks.empty()) {
      // Advance past the adopted queue so the next pick starts at its
      // successor: strict round-robin across runnable queues.
      rr_cursor_ = (rr_cursor_ + k + 1) % n;
      return q;
    }
  }
  return nullptr;
}

TaskScheduler::QueueId TaskScheduler::CreateQueue() {
  std::lock_guard<std::mutex> lock(mu_);
  auto q = std::make_unique<Queue>();
  q->id = next_id_++;
  queues_.push_back(std::move(q));
  return queues_.back()->id;
}

void TaskScheduler::DestroyQueue(QueueId id) {
  if (id == kInvalidQueue) return;
  (void)Drain(id);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i]->id == id) {
      if (queues_[i]->running || !queues_[i]->tasks.empty()) {
        // Drain returned early because we are inside this queue's own
        // running task (self-destroy, e.g. a progress sink closing its
        // session from OnDone). Erasing now would free the Queue the
        // worker still writes to when the task returns — defer: the
        // worker erases the queue once it falls idle, after running any
        // remaining tasks.
        queues_[i]->destroy_on_idle = true;
        return;
      }
      EraseQueueLocked(id);
      return;
    }
  }
}

void TaskScheduler::Submit(QueueId id, std::function<Status()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Queue* q = FindLocked(id);
    SMARTDD_CHECK(q != nullptr) << "Submit on unknown task queue " << id;
    q->tasks.push_back(std::move(fn));
    ++queued_or_running_;
    Metrics().queue_depth.Add(1);
    // Lazy worker spawn: one thread per outstanding task until the cap.
    if (workers_.size() < max_workers_ &&
        workers_.size() < queued_or_running_) {
      workers_.emplace_back([this]() { WorkerLoop(); });
    }
  }
  work_cv_.notify_one();
}

Status TaskScheduler::Drain(QueueId id) {
  if (id == kInvalidQueue) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  Queue* q = FindLocked(id);
  if (q == nullptr) return Status::OK();
  if (tls_running_scheduler == this && tls_running_queue == id) {
    // Drain called from within a task of this very queue (e.g. a
    // service-submitted expansion joining its session's prefetch). The
    // queue is FIFO with at most one task in flight, so every earlier task
    // has already completed; waiting would deadlock on ourselves. Report
    // the previous task's status.
    return q->last_status;
  }
  if (tls_running_scheduler == this) {
    // Cross-queue drain from inside a task: the caller occupies one of a
    // bounded set of workers, and no new workers spawn while it blocks — if
    // every worker ended up here, the queues being waited on could never
    // run (e.g. scheduler_workers=1, a service expansion task draining its
    // session's pending prefetch). Instead of blocking, help: run the
    // target queue's tasks inline, in their FIFO order, until it is empty.
    while (!q->tasks.empty() || q->running) {
      if (q->running || q->tasks.empty()) {
        // A task of q runs on another worker (or q emptied meanwhile);
        // wait for its completion notification and re-check.
        idle_cv_.wait(lock);
        continue;
      }
      std::function<Status()> fn = std::move(q->tasks.front());
      q->tasks.pop_front();
      q->running = true;
      lock.unlock();
      const QueueId outer = tls_running_queue;
      tls_running_queue = id;
      Status s = RunTimed(fn);
      tls_running_queue = outer;
      lock.lock();
      q->running = false;
      q->last_status = std::move(s);
      --queued_or_running_;
      Metrics().queue_depth.Sub(1);
      idle_cv_.notify_all();
    }
    Status last = q->last_status;
    if (q->destroy_on_idle) {
      // An inline-run task self-destroyed the queue; honour the deferred
      // erase here — WorkerLoop never sees this queue fall idle.
      EraseQueueLocked(q->id);
    }
    return last;
  }
  idle_cv_.wait(lock, [&]() { return q->tasks.empty() && !q->running; });
  return q->last_status;
}

size_t TaskScheduler::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

size_t TaskScheduler::num_queues() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queues_.size();
}

size_t TaskScheduler::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_or_running_;
}

void TaskScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    Queue* q = nullptr;
    work_cv_.wait(lock, [&]() {
      if (shutdown_) return true;
      q = PickRunnableLocked();
      return q != nullptr;
    });
    if (shutdown_) return;
    std::function<Status()> fn = std::move(q->tasks.front());
    q->tasks.pop_front();
    q->running = true;
    lock.unlock();
    tls_running_scheduler = this;
    tls_running_queue = q->id;
    Status s = RunTimed(fn);
    tls_running_scheduler = nullptr;
    tls_running_queue = kInvalidQueue;
    lock.lock();
    // `q` stays valid across the unlocked region: DestroyQueue drains the
    // queue first, and a drain cannot finish while running is set — a
    // self-destroy from inside the task only marks destroy_on_idle, which
    // is honoured here.
    q->running = false;
    q->last_status = std::move(s);
    --queued_or_running_;
    Metrics().queue_depth.Sub(1);
    idle_cv_.notify_all();
    if (!q->tasks.empty()) {
      work_cv_.notify_one();
    } else if (q->destroy_on_idle) {
      EraseQueueLocked(q->id);
    }
  }
}

void TaskScheduler::EraseQueueLocked(QueueId id) {
  for (size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i]->id == id) {
      queues_.erase(queues_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  if (!queues_.empty()) rr_cursor_ %= queues_.size();
}

}  // namespace smartdd
