// Copyright 2026 The ONEX Reproduction Authors.
// One small process-wide pool of worker threads for the offline build
// (OnexBase::Build runs each length's scans on it). A thread hands the
// pool a Batch of tasks and runs those tasks itself too: each task runs
// once, on whichever thread claims it first, so the submitting thread
// never waits for a worker to wake up. It waits only for tasks a worker
// has already claimed.
//
// The workers stay off the CPU a submitting thread last submitted
// from, since that thread runs tasks too; with two submitting threads,
// off the CPU of the last Submit (recorded and applied under the
// pool's lock). Left to itself, a scheduler
// may place a woken worker beside the thread that woke it and leave it
// there: on a 2-vCPU VM both threads shared one CPU for about the first
// second of a process (the other idle), which halved a build's speed.
//
// A task that may run on a worker must not allocate. A thread that
// calls malloc (or free) gets its own allocator arena, and the pages an
// arena frees stay resident, so a worker that allocated would raise the
// process's peak memory by what it ever held. Whatever a task writes is
// allocated by the submitting thread before the task is submitted, and
// freed by it afterwards. Tasks must not throw either.

#ifndef ONEX_UTIL_WORK_POOL_H_
#define ONEX_UTIL_WORK_POOL_H_

#include <sched.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace onex {

class WorkPool {
 public:
  /// Starts `workers` threads (none is valid: the submitting threads
  /// then run every task themselves).
  explicit WorkPool(size_t workers);
  /// Stops and joins the workers. Every Batch must be gone.
  ~WorkPool();
  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  /// The process-wide pool, started on first use: one worker per CPU
  /// in the process's affinity mask (the one it started with, whichever
  /// thread asks first) beyond the one a submitting thread runs on, so
  /// none on one CPU.
  static WorkPool& Shared();

  size_t workers() const { return threads_.size(); }

  /// Tasks the workers (not the submitting threads) have run so far.
  uint64_t worker_tasks() const {
    return worker_tasks_.load(std::memory_order_relaxed);
  }

  class Batch;

 private:
  void WorkerLoop();
  /// Lets the workers run on every CPU of the pool's mask but `cpu`.
  void KeepWorkersOffLocked(int cpu) REQUIRES(mutex_);

  Mutex mutex_{LockRank::kLeaf, "work_pool.mutex"};
  /// Signalled when a batch gains an unclaimed task, or on stop.
  CondVar work_cv_;
  /// Batches holding unclaimed tasks, oldest first. Only submitting
  /// threads add to it (and so allocate); workers only erase.
  std::vector<Batch*> ready_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  std::atomic<uint64_t> worker_tasks_{0};
  cpu_set_t cpus_;  ///< The process's affinity mask.
  int workers_off_cpu_ GUARDED_BY(mutex_) = -1;
  std::vector<std::thread> threads_;  // Last: uses the members above.
};

/// Tasks submitted by one thread, which also runs them. Destroying a
/// batch first runs its unclaimed tasks and waits for the claimed ones.
class WorkPool::Batch {
 public:
  /// What Next returns once every submitted task has been reported.
  static constexpr size_t kNone = SIZE_MAX;

  explicit Batch(WorkPool& pool);
  ~Batch();
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  /// Queues `task` for a worker or for this thread's Next; returns its
  /// id, the number of tasks submitted before it.
  size_t Submit(std::function<void()> task);

  /// Reports one finished task by id, each once: one a worker finished,
  /// else one this thread claims and runs now, else, with every task
  /// claimed, the next one a worker finishes. kNone once every
  /// submitted task has been reported.
  size_t Next();

  /// Runs or waits for every submitted task.
  void Wait() {
    while (Next() != kNone) {
    }
  }

 private:
  friend class WorkPool;

  struct Task {
    std::function<void()> run;
    size_t id = 0;
    Task* next_finished = nullptr;
  };

  /// Claims the oldest unclaimed task, and leaves the pool's ready list
  /// once none is left.
  Task* ClaimLocked() REQUIRES(pool_.mutex_);

  WorkPool& pool_;
  /// Every task submitted; a deque, so a task a worker runs stays put
  /// while Submit appends.
  std::deque<Task> tasks_ GUARDED_BY(pool_.mutex_);
  size_t claimed_ GUARDED_BY(pool_.mutex_) = 0;  ///< tasks_[0, claimed_).
  size_t reported_ GUARDED_BY(pool_.mutex_) = 0;
  /// Tasks workers finished that Next has not reported, oldest first.
  Task* finished_head_ GUARDED_BY(pool_.mutex_) = nullptr;
  Task* finished_tail_ GUARDED_BY(pool_.mutex_) = nullptr;
  /// Signalled when a worker finishes one of this batch's tasks.
  CondVar finished_cv_;
};

}  // namespace onex

#endif  // ONEX_UTIL_WORK_POOL_H_
