#include "common/task_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace smartdd {
namespace {

TEST(TaskSchedulerTest, RunsSubmittedTask) {
  TaskScheduler scheduler(1);
  auto q = scheduler.CreateQueue();
  std::atomic<int> runs{0};
  scheduler.Submit(q, [&]() {
    ++runs;
    return Status::OK();
  });
  EXPECT_TRUE(scheduler.Drain(q).ok());
  EXPECT_EQ(runs.load(), 1);
  scheduler.DestroyQueue(q);
}

TEST(TaskSchedulerTest, NoWorkersUntilFirstSubmit) {
  TaskScheduler scheduler(4);
  auto q = scheduler.CreateQueue();
  EXPECT_EQ(scheduler.num_workers(), 0u);
  scheduler.Submit(q, []() { return Status::OK(); });
  EXPECT_GE(scheduler.num_workers(), 1u);
  scheduler.DestroyQueue(q);
}

TEST(TaskSchedulerTest, DrainReturnsLastStatus) {
  TaskScheduler scheduler(1);
  auto q = scheduler.CreateQueue();
  scheduler.Submit(q, []() { return Status::IOError("boom"); });
  EXPECT_EQ(scheduler.Drain(q).code(), StatusCode::kIOError);
  // A later OK task overwrites it.
  scheduler.Submit(q, []() { return Status::OK(); });
  EXPECT_TRUE(scheduler.Drain(q).ok());
  scheduler.DestroyQueue(q);
}

TEST(TaskSchedulerTest, DrainOfInvalidOrUnknownQueueIsOk) {
  TaskScheduler scheduler(1);
  EXPECT_TRUE(scheduler.Drain(TaskScheduler::kInvalidQueue).ok());
  EXPECT_TRUE(scheduler.Drain(12345).ok());
  scheduler.DestroyQueue(TaskScheduler::kInvalidQueue);  // no-op
}

TEST(TaskSchedulerTest, QueueTasksRunInFifoOrder) {
  TaskScheduler scheduler(4);  // even with several workers: one at a time
  auto q = scheduler.CreateQueue();
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    scheduler.Submit(q, [&, i]() {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      return Status::OK();
    });
  }
  EXPECT_TRUE(scheduler.Drain(q).ok());
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
  scheduler.DestroyQueue(q);
}

TEST(TaskSchedulerTest, RoundRobinDoesNotStarveSmallQueue) {
  // One worker. While it is parked on a gate task, queue A floods 10 tasks
  // and queue B submits a single one. Round-robin draining must interleave
  // B's task near the front instead of behind A's whole backlog (FIFO
  // submission order would run it last).
  TaskScheduler scheduler(1);
  auto gate_q = scheduler.CreateQueue();
  auto a = scheduler.CreateQueue();
  auto b = scheduler.CreateQueue();

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  scheduler.Submit(gate_q, [&]() {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&]() { return gate_open; });
    return Status::OK();
  });

  std::mutex mu;
  std::vector<char> order;
  for (int i = 0; i < 10; ++i) {
    scheduler.Submit(a, [&]() {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back('A');
      return Status::OK();
    });
  }
  scheduler.Submit(b, [&]() {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back('B');
    return Status::OK();
  });

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  EXPECT_TRUE(scheduler.Drain(a).ok());
  EXPECT_TRUE(scheduler.Drain(b).ok());

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), 11u);
  size_t b_pos = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 'B') b_pos = i;
  }
  EXPECT_LT(b_pos, 3u) << "queue B was starved behind queue A's backlog";
}

TEST(TaskSchedulerTest, DestroyQueueDrainsPendingTasks) {
  TaskScheduler scheduler(2);
  auto q = scheduler.CreateQueue();
  std::atomic<int> runs{0};
  for (int i = 0; i < 8; ++i) {
    scheduler.Submit(q, [&]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++runs;
      return Status::OK();
    });
  }
  scheduler.DestroyQueue(q);  // blocks until all 8 ran
  EXPECT_EQ(runs.load(), 8);
}

TEST(TaskSchedulerTest, ConcurrentSubmittersOnSeparateQueues) {
  TaskScheduler scheduler(4);
  constexpr int kThreads = 8;
  constexpr int kTasks = 50;
  std::vector<TaskScheduler::QueueId> queues;
  for (int t = 0; t < kThreads; ++t) queues.push_back(scheduler.CreateQueue());
  std::atomic<int> runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kTasks; ++i) {
        scheduler.Submit(queues[t], [&]() {
          ++runs;
          return Status::OK();
        });
      }
      EXPECT_TRUE(scheduler.Drain(queues[t]).ok());
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(runs.load(), kThreads * kTasks);
  EXPECT_EQ(scheduler.pending_tasks(), 0u);
  for (auto q : queues) scheduler.DestroyQueue(q);
}

TEST(TaskSchedulerTest, DrainFromInsideOwnTaskReturnsInsteadOfDeadlocking) {
  // A task may drain its own queue (the service's scheduler-riding
  // expansions join the session's prefetch this way): FIFO + one-in-flight
  // means everything earlier is already done, so Drain must return
  // immediately with the previous task's status rather than wait for the
  // caller itself to finish.
  TaskScheduler scheduler(2);
  auto q = scheduler.CreateQueue();
  scheduler.Submit(q, []() { return Status::IOError("earlier task"); });

  std::atomic<bool> self_drain_ok{false};
  std::atomic<int> self_drain_code{-1};
  scheduler.Submit(q, [&]() {
    Status s = scheduler.Drain(q);  // would deadlock without re-entrancy
    self_drain_ok = true;
    self_drain_code = static_cast<int>(s.code());
    return Status::OK();
  });
  EXPECT_TRUE(scheduler.Drain(q).ok());
  EXPECT_TRUE(self_drain_ok.load());
  EXPECT_EQ(self_drain_code.load(),
            static_cast<int>(StatusCode::kIOError));

  // Draining someone ELSE's queue from inside a task still blocks properly.
  auto other = scheduler.CreateQueue();
  std::atomic<bool> other_ran{false};
  scheduler.Submit(other, [&]() {
    other_ran = true;
    return Status::OK();
  });
  std::atomic<bool> cross_ok{false};
  scheduler.Submit(q, [&]() {
    Status s = scheduler.Drain(other);
    cross_ok = s.ok() && other_ran.load();
    return Status::OK();
  });
  EXPECT_TRUE(scheduler.Drain(q).ok());
  EXPECT_TRUE(cross_ok.load());
  scheduler.DestroyQueue(q);
  scheduler.DestroyQueue(other);
}

TEST(TaskSchedulerTest, CrossQueueDrainFromTaskHelpsRunTargetQueue) {
  // One worker: a task of queue a submits onto queue b and drains b from
  // inside itself. No second worker exists to run b's task, and none will
  // spawn while the first blocks — the drain must adopt and run b's tasks
  // inline (in FIFO order) instead of deadlocking the scheduler.
  TaskScheduler scheduler(1);
  auto a = scheduler.CreateQueue();
  auto b = scheduler.CreateQueue();
  std::atomic<int> b_runs{0};
  std::atomic<bool> drained_after_b{false};
  scheduler.Submit(a, [&]() {
    scheduler.Submit(b, [&]() {
      b_runs.fetch_add(1);
      return Status::OK();
    });
    scheduler.Submit(b, [&]() {
      b_runs.fetch_add(1);
      return Status::IOError("last b task");
    });
    Status s = scheduler.Drain(b);  // would deadlock without inline help
    drained_after_b = b_runs.load() == 2;
    return s;
  });
  Status a_status = scheduler.Drain(a);
  EXPECT_EQ(a_status.code(), StatusCode::kIOError);  // b's last status
  EXPECT_TRUE(drained_after_b.load());
  EXPECT_EQ(b_runs.load(), 2);
  scheduler.DestroyQueue(a);
  scheduler.DestroyQueue(b);
}

TEST(TaskSchedulerTest, DestroyQueueFromInsideOwnTaskDefersDestruction) {
  // A task may destroy its own queue (a progress sink closing its session
  // from OnDone reaches DestroyQueue through the registry). The queue must
  // not be freed out from under the still-running task; destruction is
  // deferred until the queue falls idle, and tasks queued behind the
  // current one still run first (DestroyQueue = drain, then remove).
  TaskScheduler scheduler(1);
  auto q = scheduler.CreateQueue();
  std::atomic<int> later_runs{0};
  std::atomic<bool> self_destroy_returned{false};
  scheduler.Submit(q, [&]() {
    scheduler.Submit(q, [&]() {
      later_runs.fetch_add(1);
      return Status::OK();
    });
    scheduler.DestroyQueue(q);  // would be a use-after-free if erased now
    self_destroy_returned = true;
    return Status::OK();
  });
  while (scheduler.pending_tasks() != 0) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(self_destroy_returned.load());
  EXPECT_EQ(later_runs.load(), 1);
  // The queue is gone: draining or re-destroying it is a no-op.
  EXPECT_EQ(scheduler.num_queues(), 0u);
  EXPECT_TRUE(scheduler.Drain(q).ok());
  scheduler.DestroyQueue(q);
}

TEST(TaskSchedulerTest, SelfDestroyInsideHelpRunTaskStillErasesQueue) {
  // A task of queue a help-runs queue b's tasks via a cross-queue Drain;
  // one of those inline-run tasks destroys b. The deferred erase must
  // happen in the help loop too — WorkerLoop never sees b fall idle.
  TaskScheduler scheduler(1);
  auto a = scheduler.CreateQueue();
  auto b = scheduler.CreateQueue();
  std::atomic<bool> b_destroyed_inline{false};
  scheduler.Submit(a, [&]() {
    scheduler.Submit(b, [&]() {
      scheduler.DestroyQueue(b);  // self-destroy from the help-run task
      b_destroyed_inline = true;
      return Status::OK();
    });
    return scheduler.Drain(b);  // help-runs b's task inline
  });
  EXPECT_TRUE(scheduler.Drain(a).ok());
  EXPECT_TRUE(b_destroyed_inline.load());
  EXPECT_EQ(scheduler.num_queues(), 1u);  // only a remains
  scheduler.DestroyQueue(a);
  EXPECT_EQ(scheduler.num_queues(), 0u);
}

}  // namespace
}  // namespace smartdd
