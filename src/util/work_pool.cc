#include "util/work_pool.h"

#include <pthread.h>
#include <sched.h>
#include <signal.h>

#include <algorithm>
#include <utility>

namespace onex {
namespace {

/// The calling thread's affinity mask; empty where it cannot be read.
cpu_set_t ThreadAffinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
  return set;
}

/// The mask the process started with (what a launcher such as taskset
/// set), read once before main, so a thread that has narrowed its own
/// mask since does not narrow the pool's.
const cpu_set_t kStartupAffinity = ThreadAffinity();

/// The process's affinity mask: kStartupAffinity, or the calling
/// thread's when asked before it is read. Affinity is per thread in
/// Linux; this is the one every thread the program starts inherits
/// unless it was changed.
cpu_set_t ProcessAffinity() {
  return CPU_COUNT(&kStartupAffinity) > 0 ? kStartupAffinity
                                          : ThreadAffinity();
}

/// CPUs this process may run on: ProcessAffinity's count, or, where
/// the mask cannot be read, the hardware's. At least one.
size_t CpusAvailable() {
  const cpu_set_t set = ProcessAffinity();
  if (CPU_COUNT(&set) > 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

WorkPool::WorkPool(size_t workers) : cpus_(ProcessAffinity()) {
  // Workers start with every signal blocked but the ones a fault raises
  // in the faulting thread: a server that blocks SIGTERM and sigwaits
  // for it may have started the pool first, and a worker must not take
  // the signal in its place.
  sigset_t blocked, saved;
  sigfillset(&blocked);
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT, SIGTRAP}) {
    sigdelset(&blocked, sig);
  }
  pthread_sigmask(SIG_BLOCK, &blocked, &saved);
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
  pthread_sigmask(SIG_SETMASK, &saved, nullptr);
}

WorkPool::~WorkPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
}

void WorkPool::KeepWorkersOffLocked(int cpu) {
  if (threads_.empty() || cpu < 0 || cpu >= CPU_SETSIZE ||
      workers_off_cpu_ == cpu) {
    return;
  }
  workers_off_cpu_ = cpu;
  cpu_set_t set = cpus_;
  CPU_CLR(cpu, &set);
  if (CPU_COUNT(&set) == 0) return;
  for (std::thread& thread : threads_) {
    pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
  }
}

WorkPool& WorkPool::Shared() {
  static WorkPool pool(CpusAvailable() - 1);
  return pool;
}

void WorkPool::WorkerLoop() {
  mutex_.Lock();
  while (true) {
    if (ready_.empty()) {
      if (stop_) break;
      work_cv_.Wait(mutex_);
      continue;
    }
    Batch* batch = ready_.front();
    Batch::Task* task = batch->ClaimLocked();
    mutex_.Unlock();
    task->run();
    worker_tasks_.fetch_add(1, std::memory_order_relaxed);
    mutex_.Lock();
    // The batch's thread may return from Next, and destroy the batch,
    // as soon as the lock drops: nothing here touches it after that.
    if (batch->finished_tail_ == nullptr) {
      batch->finished_head_ = task;
    } else {
      batch->finished_tail_->next_finished = task;
    }
    batch->finished_tail_ = task;
    batch->finished_cv_.NotifyOne();
  }
  mutex_.Unlock();
}

WorkPool::Batch::Batch(WorkPool& pool) : pool_(pool) {}

WorkPool::Batch::~Batch() { Wait(); }

WorkPool::Batch::Task* WorkPool::Batch::ClaimLocked() {
  Task* task = &tasks_[claimed_++];
  if (claimed_ == tasks_.size() && pool_.workers() > 0) {
    auto& ready = pool_.ready_;
    ready.erase(std::find(ready.begin(), ready.end(), this));
  }
  return task;
}

size_t WorkPool::Batch::Submit(std::function<void()> task) {
  MutexLock lock(pool_.mutex_);
  pool_.KeepWorkersOffLocked(sched_getcpu());
  const size_t id = tasks_.size();
  tasks_.push_back({std::move(task), id, nullptr});
  // Without workers the pool's list stays empty and this thread runs
  // every task in Next.
  if (pool_.workers() > 0) {
    if (claimed_ == id) pool_.ready_.push_back(this);
    pool_.work_cv_.NotifyOne();
  }
  return id;
}

size_t WorkPool::Batch::Next() {
  pool_.mutex_.Lock();
  while (true) {
    if (finished_head_ != nullptr) {
      Task* task = finished_head_;
      finished_head_ = task->next_finished;
      if (finished_head_ == nullptr) finished_tail_ = nullptr;
      ++reported_;
      pool_.mutex_.Unlock();
      return task->id;
    }
    if (claimed_ < tasks_.size()) {
      Task* task = ClaimLocked();
      // Reported before it runs, so a task that throws here leaves no
      // count behind for the destructor's Wait to wait on.
      ++reported_;
      pool_.mutex_.Unlock();
      task->run();
      return task->id;
    }
    if (reported_ == tasks_.size()) break;
    finished_cv_.Wait(pool_.mutex_);
  }
  pool_.mutex_.Unlock();
  return kNone;
}

}  // namespace onex
