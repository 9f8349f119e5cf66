// Tests for WorkPool (util/work_pool.h): every task runs exactly once,
// the submitting thread runs unclaimed tasks itself and waits only for
// claimed ones, batches from two threads share one pool, an empty
// batch returns at once, workers keep off the submitting thread's CPU
// (within the process's mask, even when the pool was made on a thread
// held on one CPU), and they leave process-directed signals to the
// program's own threads. Task counts stay small, and no test starts
// more threads than one pool worker and two submitters.

#include "util/work_pool.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <thread>
#include <vector>

namespace onex {
namespace {

/// Runs `count` tasks through `pool`; each bumps its own counter. Every
/// counter must end at one and Next must report every id once.
void ExpectEachTaskRunsOnce(WorkPool& pool, size_t count) {
  std::vector<std::atomic<int>> runs(count);
  std::set<size_t> reported;
  {
    WorkPool::Batch batch(pool);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batch.Submit([&runs, i] { runs[i].fetch_add(1); }), i);
    }
    for (size_t id; (id = batch.Next()) != WorkPool::Batch::kNone;) {
      EXPECT_LT(id, count);
      EXPECT_TRUE(reported.insert(id).second) << "id " << id;
      EXPECT_EQ(runs[id].load(), 1) << "reported before it ran: " << id;
    }
  }
  EXPECT_EQ(reported.size(), count);
  for (size_t i = 0; i < count; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(WorkPoolTest, EveryTaskRunsExactlyOnce) {
  WorkPool pool(1);
  for (size_t count : {1u, 2u, 7u, 40u}) ExpectEachTaskRunsOnce(pool, count);
  WorkPool alone(0);
  ExpectEachTaskRunsOnce(alone, 7);
}

/// Tasks submitted after Next started reporting (as a build queues each
/// length's pairwise pass) run once too.
TEST(WorkPoolTest, TasksSubmittedWhileReportingRunOnce) {
  WorkPool pool(1);
  std::vector<std::atomic<int>> runs(8);
  WorkPool::Batch batch(pool);
  for (size_t i = 0; i < 4; ++i) {
    batch.Submit([&runs, i] { runs[i].fetch_add(1); });
  }
  size_t reports = 0;
  for (size_t id; (id = batch.Next()) != WorkPool::Batch::kNone; ++reports) {
    if (id < 4) batch.Submit([&runs, id] { runs[id + 4].fetch_add(1); });
  }
  EXPECT_EQ(reports, 8u);
  for (size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

/// With the one worker held in a task, the submitting thread runs every
/// later task itself and only then waits, for the held one.
TEST(WorkPoolTest, CallerFinishesAloneWhenNoWorkerClaims) {
  WorkPool pool(1);
  std::atomic<bool> held{false}, release{false};
  std::thread::id held_on;
  std::vector<std::thread::id> ran_on(5);
  WorkPool::Batch batch(pool);
  const size_t held_id = batch.Submit([&] {
    held_on = std::this_thread::get_id();
    held.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  // Only the worker can claim it: this thread is not in Next yet.
  while (!held.load()) std::this_thread::yield();
  for (size_t i = 0; i < ran_on.size(); ++i) {
    batch.Submit([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
  }
  for (size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(batch.Next(), i + 1);
    EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << i;
  }
  release.store(true);
  EXPECT_EQ(batch.Next(), held_id);
  EXPECT_NE(held_on, std::this_thread::get_id());
  EXPECT_EQ(batch.Next(), WorkPool::Batch::kNone);
}

TEST(WorkPoolTest, WithoutWorkersTheCallerRunsEverything) {
  WorkPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::vector<std::thread::id> ran_on(6);
  WorkPool::Batch batch(pool);
  for (size_t i = 0; i < ran_on.size(); ++i) {
    batch.Submit([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
  }
  batch.Wait();
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(pool.worker_tasks(), 0u);
}

TEST(WorkPoolTest, TwoThreadsMaySubmitAtOnce) {
  WorkPool pool(1);
  constexpr size_t kTasks = 30;
  std::vector<std::atomic<int>> runs(2 * kTasks);
  auto submitter = [&](size_t first) {
    for (int round = 0; round < 5; ++round) {
      WorkPool::Batch batch(pool);
      for (size_t i = first; i < first + kTasks; ++i) {
        batch.Submit([&runs, i] { runs[i].fetch_add(1); });
      }
      batch.Wait();
    }
  };
  std::thread a(submitter, 0), b(submitter, kTasks);
  a.join();
  b.join();
  for (size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 5) << i;
}

TEST(WorkPoolTest, ZeroTasksReturnAtOnce) {
  WorkPool pool(1);
  WorkPool::Batch batch(pool);
  EXPECT_EQ(batch.Next(), WorkPool::Batch::kNone);
  const auto start = std::chrono::steady_clock::now();
  batch.Wait();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

/// A batch destroyed before its tasks were reported still runs them all
/// and waits for them: they may point at the submitter's stack.
TEST(WorkPoolTest, DestroyingABatchWaitsForItsTasks) {
  WorkPool pool(1);
  std::vector<std::atomic<int>> runs(12);
  {
    WorkPool::Batch batch(pool);
    for (size_t i = 0; i < runs.size(); ++i) {
      batch.Submit([&runs, i] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        runs[i].fetch_add(1);
      });
    }
  }
  for (size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

/// A worker takes no process-directed signal (a server sigwaits for
/// SIGTERM on its own thread), but a fault's signal still reaches the
/// faulting worker, where a crash recorder's handler can run.
TEST(WorkPoolTest, WorkersBlockSignalsButFaults) {
  WorkPool pool(1);
  std::atomic<bool> ran{false};
  sigset_t mask;
  sigemptyset(&mask);
  WorkPool::Batch batch(pool);
  batch.Submit([&] {
    pthread_sigmask(SIG_BLOCK, nullptr, &mask);
    ran.store(true);
  });
  // Only the worker can claim it: this thread is not in Next yet.
  while (!ran.load()) std::this_thread::yield();
  batch.Wait();
  for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGUSR1, SIGPIPE}) {
    EXPECT_EQ(sigismember(&mask, sig), 1) << sig;
  }
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    EXPECT_EQ(sigismember(&mask, sig), 0) << sig;
  }
}

/// The affinity of `pool`'s worker, as a task submitted from a thread
/// held on `cpu` finds it. Constructs the pool on that thread when
/// `pool` holds none yet.
cpu_set_t WorkerMaskSubmittedFrom(int cpu, std::optional<WorkPool>& pool) {
  cpu_set_t process;
  CPU_ZERO(&process);
  sched_getaffinity(0, sizeof(process), &process);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  cpu_set_t worker;
  CPU_ZERO(&worker);
  EXPECT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);
  if (!pool) pool.emplace(1);
  {
    std::atomic<bool> ran{false};
    WorkPool::Batch batch(*pool);
    batch.Submit([&] {
      pthread_getaffinity_np(pthread_self(), sizeof(worker), &worker);
      ran.store(true);
    });
    // Only the worker can claim it: this thread is not in Next yet.
    while (!ran.load()) std::this_thread::yield();
  }
  EXPECT_EQ(
      pthread_setaffinity_np(pthread_self(), sizeof(process), &process), 0);
  return worker;
}

/// A submitting thread runs tasks too, so the workers keep off the CPU
/// it submits from.
TEST(WorkPoolTest, WorkersKeepOffTheSubmittersCpu) {
  cpu_set_t process;
  CPU_ZERO(&process);
  ASSERT_EQ(sched_getaffinity(0, sizeof(process), &process), 0);
  if (CPU_COUNT(&process) < 2) GTEST_SKIP() << "one CPU";
  std::optional<WorkPool> pool;
  pool.emplace(1);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &process)) ++cpu;
  const cpu_set_t worker = WorkerMaskSubmittedFrom(cpu, pool);
  EXPECT_FALSE(CPU_ISSET(cpu, &worker));
  EXPECT_EQ(CPU_COUNT(&worker), CPU_COUNT(&process) - 1);
}

/// A pool made on a thread held on one CPU still takes the process's
/// mask for its workers, not that thread's.
TEST(WorkPoolTest, PoolMadeOnAPinnedThreadUsesTheProcessMask) {
  cpu_set_t process;
  CPU_ZERO(&process);
  ASSERT_EQ(sched_getaffinity(0, sizeof(process), &process), 0);
  if (CPU_COUNT(&process) < 2) GTEST_SKIP() << "one CPU";
  int cpu = 0;
  while (!CPU_ISSET(cpu, &process)) ++cpu;
  std::optional<WorkPool> pool;
  const cpu_set_t worker = WorkerMaskSubmittedFrom(cpu, pool);
  EXPECT_FALSE(CPU_ISSET(cpu, &worker));
  EXPECT_EQ(CPU_COUNT(&worker), CPU_COUNT(&process) - 1);
}

TEST(WorkPoolTest, SharedPoolLeavesOneCpuToTheCaller) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(WorkPool::Shared().workers(),
            static_cast<size_t>(CPU_COUNT(&set)) - 1);
  EXPECT_EQ(&WorkPool::Shared(), &WorkPool::Shared());
}

}  // namespace
}  // namespace onex
