// Copyright 2026 The ONEX Reproduction Authors.
// Annotated mutex wrappers: the only locking primitives the serving
// stack uses. Three things the std primitives don't give us:
//
//   1. Clang Thread Safety Analysis capabilities (thread_annotations.h)
//      — GUARDED_BY members and REQUIRES helpers are proved at compile
//      time under -Werror=thread-safety (the `thread-safety` CI job).
//   2. A lock-order hierarchy (LockRank): every mutex is constructed
//      with its rank, and debug-checked builds
//      (ONEX_LOCK_ORDER_CHECKS) abort with both lock names when a
//      thread acquires out of rank order — turning a potential
//      deadlock into a deterministic crash at the acquisition site.
//   3. AssertHeld(): the sound escape hatch for
//      code that receives a lock across an untyped boundary (a
//      std::function callback or a virtual call made with the lock
//      held) — it informs the analysis AND verifies at runtime when
//      checking is compiled in.
//
// The deployment-wide rank order (outermost first) is LockRank below;
// README "Concurrency & locking model" narrates it. Acquiring a lock
// whose rank is <= any rank already held by the thread is a hierarchy
// violation — including re-acquiring the same mutex.
//
// Checking is compiled in when ONEX_LOCK_ORDER_CHECKS is defined to 1
// (the default for sanitizer builds — see CMakeLists) and costs a
// thread-local push/pop per acquisition; without it the wrappers are
// zero-overhead shims over the std primitives.

#ifndef ONEX_UTIL_MUTEX_H_
#define ONEX_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

#ifndef ONEX_LOCK_ORDER_CHECKS
#define ONEX_LOCK_ORDER_CHECKS 0
#endif

namespace onex {

/// The lock-order hierarchy, outermost (acquired first) to innermost.
/// A thread may only acquire a mutex of STRICTLY GREATER rank than
/// every mutex it already holds. Ranks are spaced so future layers can
/// slot in between without renumbering the world.
///
/// The order encodes the real call chains of the serving stack:
///   - the catalog opens/evicts engines (and checkpoints dirty durable
///     victims) under its registry mutex, so catalog < checkpoint;
///   - a checkpoint pins a settled version under the engine's append
///     mutex and rotates the WAL under the WAL mutex, so checkpoint <
///     engine-append and checkpoint < storage-wal;
///   - an engine append (append mutex held) write-ahead logs through
///     the AppendSink into the WAL and pokes the checkpointer, so
///     engine-append < storage-wal < storage-cp;
///   - the engine's version mutex is held only to copy or replace the
///     current version pointer and calls nothing, so it is kLeaf; a
///     query runs on its pinned version with no engine lock held;
///   - metrics are recorded everywhere and call nothing, so metrics is
///     the innermost server rank.
/// Client-side locks live in their own (higher) band: a client runs in
/// the same process only in tests, and its threads never hold server
/// locks.
enum class LockRank : int {
  kServerSessions = 10,    ///< server::SessionHost::mutex_
  kServerWatchdog = 12,    ///< Server::watchdog_mutex_
  kServerQueue = 15,       ///< Server::queue_mutex_
  kCatalog = 20,           ///< Catalog::mutex_
  kStorageCheckpoint = 30, ///< DurableEngine::checkpoint_mutex_
  kEngineAppend = 40,      ///< Engine::append_mutex_
  kStorageWal = 42,        ///< DurableEngine::wal_mutex_
  kStorageCp = 50,         ///< DurableEngine::cp_mutex_
  // Router band: below the session ranks (a merge callback holds its
  // op mutex while sending the merged frame downstream) and below the
  // client band (router threads submit upstream legs — Client locks —
  // while holding router state).
  kRouterTable = 44,       ///< router::RoutingTable::mutex_
  kRouterUpstream = 46,    ///< router::UpstreamPool link mutex
  kRouterMerge = 48,       ///< router::ScatterOp::mutex
  kSessionWrite = 52,      ///< server::Session::write_mutex_
  kSessionState = 54,      ///< server::Session::mutex_
  kMetrics = 60,           ///< ServerMetrics::mutex_
  kClientDemuxStart = 70,  ///< Client::demux_mutex_
  kClientSend = 72,        ///< Client::Demux::send_mutex
  kClientDemuxState = 74,  ///< Client::Demux::mutex
  kClientHandle = 76,      ///< Client::Handle::State::mutex
  kClientPending = 78,     ///< Client::Demux::Pending::mutex
  kLeaf = 100,             ///< Default: must be innermost everywhere.
};

namespace lock_debug {

/// Records an acquisition; aborts (with both lock names and the held
/// stack) when `rank` is not strictly greater than every held rank.
void PushHeld(const void* mutex, LockRank rank, const char* name);
/// Records a release.
void PopHeld(const void* mutex);
/// True when the calling thread recorded `mutex` as held.
bool Holds(const void* mutex);
/// Aborts unless the calling thread holds `mutex` (AssertHeld body).
void CheckHeld(const void* mutex, const char* name);

/// Crash-time export: every tracked thread's held-lock stack as a JSON
/// array onto `fd` ("[]" when lock-order checking never ran — stacks
/// are only populated when ONEX_LOCK_ORDER_CHECKS builds call
/// PushHeld). Async-signal-safe; reads of other threads' stacks are
/// torn-tolerant, which a flight recorder accepts and a debugger
/// would not.
void DumpHeldStacksSigSafe(int fd);

}  // namespace lock_debug

/// Annotated std::mutex. Use MutexLock to hold it scoped; Lock/Unlock
/// exist for the rare hand-over-hand pattern. The lowercase
/// lock/unlock BasicLockable surface exists for CondVar's internals
/// only and is invisible to the analysis on purpose — annotated code
/// must go through the capital-letter API or a scoped guard.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank = LockRank::kLeaf, const char* name = "mutex")
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { LockImpl(); }
  void Unlock() RELEASE() { UnlockImpl(); }

  /// Tells the analysis the lock is held; verifies it at runtime when
  /// lock-order checking is compiled in. For callback boundaries.
  void AssertHeld() const ASSERT_CAPABILITY() {
#if ONEX_LOCK_ORDER_CHECKS
    lock_debug::CheckHeld(this, name_);
#endif
  }

  // BasicLockable for std::condition_variable_any (CondVar). Keeps the
  // rank bookkeeping consistent across a wait's unlock/relock without
  // exposing an annotated path the analysis would misread inside std
  // headers.
  void lock() NO_THREAD_SAFETY_ANALYSIS { LockImpl(); }
  void unlock() NO_THREAD_SAFETY_ANALYSIS { UnlockImpl(); }

 private:
  void LockImpl() {
#if ONEX_LOCK_ORDER_CHECKS
    lock_debug::PushHeld(this, rank_, name_);
#endif
    mu_.lock();
  }
  void UnlockImpl() {
    mu_.unlock();
#if ONEX_LOCK_ORDER_CHECKS
    lock_debug::PopHeld(this);
#endif
  }

  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// Scoped exclusive hold of a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over an annotated Mutex. No predicate overloads
/// on purpose: a `while (!pred) cv.Wait(mu);` loop keeps the predicate
/// body inside the caller, where the analysis can see the lock is held
/// — a predicate lambda would be analyzed as an unlocked function.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; re-acquires before
  /// returning. Caller must hold `mu` (and re-checks its predicate in
  /// a loop — spurious wakeups happen).
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  /// Wait with a deadline; kTimeout when it passed without a notify.
  std::cv_status WaitUntil(Mutex& mu,
                           std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }
  template <class Rep, class Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    return cv_.wait_for(mu, timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace onex

#endif  // ONEX_UTIL_MUTEX_H_
