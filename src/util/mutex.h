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
//   3. AssertHeld()/AssertReaderHeld(): the sound escape hatch for
//      code that receives a lock across an untyped boundary (a
//      std::function callback run under Engine::Exclusive, a virtual
//      AppendSink call) — it informs the analysis AND verifies at
//      runtime when checking is compiled in.
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
#include <shared_mutex>

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
///     victims) under its registry mutex, so catalog < checkpoint <
///     engine;
///   - an engine append (writer lock held) write-ahead logs through
///     the AppendSink into the WAL and pokes the checkpointer, so
///     engine < storage-cp;
///   - a query streams PART frames to the session socket from inside
///     Engine::Execute (reader lock held), so engine < session-write;
///   - metrics are recorded everywhere and call nothing, so metrics is
///     the innermost (leaf) rank.
/// Client-side locks live in their own (higher) band: a client runs in
/// the same process only in tests, and its threads never hold server
/// locks.
enum class LockRank : int {
  kServerSessions = 10,    ///< server::SessionHost::mutex_
  kServerWatchdog = 12,    ///< Server::watchdog_mutex_
  kServerQueue = 15,       ///< Server::queue_mutex_
  kCatalog = 20,           ///< Catalog::mutex_
  kStorageCheckpoint = 30, ///< DurableEngine::checkpoint_mutex_
  kEngine = 40,            ///< Engine::rw_mutex_
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

/// Annotated std::shared_mutex (the Engine's reader/writer split).
/// Shared and exclusive holds occupy the same rank slot — a reader
/// acquiring a second lock obeys the same hierarchy as a writer.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank = LockRank::kLeaf,
                       const char* name = "shared_mutex")
      : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
#if ONEX_LOCK_ORDER_CHECKS
    lock_debug::PushHeld(this, rank_, name_);
#endif
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
#if ONEX_LOCK_ORDER_CHECKS
    lock_debug::PopHeld(this);
#endif
  }
  void LockShared() ACQUIRE_SHARED() {
#if ONEX_LOCK_ORDER_CHECKS
    lock_debug::PushHeld(this, rank_, name_);
#endif
    mu_.lock_shared();
  }
  void UnlockShared() RELEASE_SHARED() {
    mu_.unlock_shared();
#if ONEX_LOCK_ORDER_CHECKS
    lock_debug::PopHeld(this);
#endif
  }

  /// See Mutex::AssertHeld. The runtime check cannot tell shared from
  /// exclusive holds apart; the analysis can, and does.
  void AssertHeld() const ASSERT_CAPABILITY() {
#if ONEX_LOCK_ORDER_CHECKS
    lock_debug::CheckHeld(this, name_);
#endif
  }
  void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY() {
#if ONEX_LOCK_ORDER_CHECKS
    lock_debug::CheckHeld(this, name_);
#endif
  }

 private:
  std::shared_mutex mu_;
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

/// Scoped exclusive (writer) hold of a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) hold of a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() RELEASE() { mu_.UnlockShared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
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
