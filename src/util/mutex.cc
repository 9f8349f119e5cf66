// Copyright 2026 The ONEX Reproduction Authors.
// Lock-order hierarchy checking (util/mutex.h). Per-thread bookkeeping
// of held annotated mutexes; a rank inversion aborts immediately with
// both lock names and the thread's full held stack — a deterministic
// crash at the acquisition site instead of a probabilistic deadlock in
// production.

#include "util/mutex.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "util/sigsafe.h"

#if defined(__linux__)
#include <sys/syscall.h>
#endif

namespace onex {
namespace lock_debug {

namespace {

/// One thread's held annotated locks, acquisition order. Fixed-size:
/// the deepest legal chain today is four (session -> catalog ->
/// checkpoint -> engine -> storage-cp); 16 leaves headroom. Entries
/// past capacity are counted but not tracked (never aborts on depth).
struct HeldStack {
  static constexpr int kCapacity = 16;
  struct Entry {
    const void* mutex;
    LockRank rank;
    const char* name;
  };
  Entry entries[kCapacity];
  int size = 0;
  int overflow = 0;
  uint64_t tid = 0;  ///< Kernel thread id, recorded at registration.
  HeldStack* next_untracked = nullptr;  ///< See g_untracked.
};

// Held stacks are heap-allocated, LEAKED, and threaded onto a fixed
// lock-free table so the crash-time flight recorder can print what
// every thread held at the moment of death. Leaking is load-bearing
// twice over: an exited thread's stack must stay readable (the handler
// may fire during teardown), and thread_local storage itself would be
// reclaimed by the runtime. The owning thread is the only writer;
// handler reads are torn-tolerant (sizes clamped, names are literals).
constexpr size_t kMaxTrackedThreads = 256;
std::atomic<HeldStack*> g_stacks[kMaxTrackedThreads];
std::atomic<size_t> g_stack_count{0};
/// Stacks of threads past the table, chained so they stay reachable
/// (a leak checker would otherwise report every one).
std::atomic<HeldStack*> g_untracked{nullptr};

uint64_t CurrentTid() {
#if defined(__linux__)
  return static_cast<uint64_t>(::syscall(SYS_gettid));
#else
  return static_cast<uint64_t>(::getpid());
#endif
}

HeldStack* CreateRegisteredStack() {
  HeldStack* stack = new HeldStack();  // Leaked by design (see above).
  stack->tid = CurrentTid();
  const size_t index = g_stack_count.fetch_add(1, std::memory_order_relaxed);
  if (index < kMaxTrackedThreads) {
    g_stacks[index].store(stack, std::memory_order_release);
  } else {
    stack->next_untracked = g_untracked.load(std::memory_order_relaxed);
    while (!g_untracked.compare_exchange_weak(stack->next_untracked, stack,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
    }
  }
  return stack;
}

HeldStack& Held() {
  thread_local HeldStack* stack = CreateRegisteredStack();
  return *stack;
}

[[noreturn]] void Die(const char* what, const char* name, LockRank rank) {
  const HeldStack& held = Held();
  std::fprintf(stderr,
               "onex lock-order violation: %s '%s' (rank %d); held locks "
               "(acquisition order):\n",
               what, name, static_cast<int>(rank));
  for (int i = 0; i < held.size; ++i) {
    std::fprintf(stderr, "  [%d] '%s' (rank %d)\n", i,
                 held.entries[i].name,
                 static_cast<int>(held.entries[i].rank));
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void PushHeld(const void* mutex, LockRank rank, const char* name) {
  HeldStack& held = Held();
  for (int i = 0; i < held.size; ++i) {
    if (held.entries[i].mutex == mutex) {
      Die("recursive acquisition of", name, rank);
    }
    if (held.entries[i].rank >= rank) {
      std::fprintf(stderr,
                   "onex lock-order violation: acquiring '%s' (rank %d) "
                   "while holding '%s' (rank %d) — hierarchy requires "
                   "strictly increasing ranks\n",
                   name, static_cast<int>(rank), held.entries[i].name,
                   static_cast<int>(held.entries[i].rank));
      Die("acquiring", name, rank);
    }
  }
  if (held.size >= HeldStack::kCapacity) {
    ++held.overflow;
    return;
  }
  held.entries[held.size++] = {mutex, rank, name};
}

void PopHeld(const void* mutex) {
  HeldStack& held = Held();
  // Releases are almost always LIFO; scan backwards for the rare
  // hand-over-hand pattern.
  for (int i = held.size - 1; i >= 0; --i) {
    if (held.entries[i].mutex != mutex) continue;
    for (int j = i; j + 1 < held.size; ++j) {
      held.entries[j] = held.entries[j + 1];
    }
    --held.size;
    return;
  }
  if (held.overflow > 0) --held.overflow;  // Untracked past capacity.
}

bool Holds(const void* mutex) {
  const HeldStack& held = Held();
  for (int i = 0; i < held.size; ++i) {
    if (held.entries[i].mutex == mutex) return true;
  }
  return false;
}

void DumpHeldStacksSigSafe(int fd) {
  using sigsafe::WriteStr;
  using sigsafe::WriteU64;
  WriteStr(fd, "[");
  size_t count = g_stack_count.load(std::memory_order_acquire);
  if (count > kMaxTrackedThreads) count = kMaxTrackedThreads;
  bool first_stack = true;
  for (size_t i = 0; i < count; ++i) {
    const HeldStack* stack = g_stacks[i].load(std::memory_order_acquire);
    if (stack == nullptr) continue;
    // Torn-tolerant read of another thread's bookkeeping: clamp the
    // size, and skip threads holding nothing (the common case).
    int size = stack->size;
    if (size < 0) size = 0;
    if (size > HeldStack::kCapacity) size = HeldStack::kCapacity;
    if (size == 0) continue;
    if (!first_stack) WriteStr(fd, ",");
    first_stack = false;
    WriteStr(fd, "{\"tid\":");
    WriteU64(fd, stack->tid);
    WriteStr(fd, ",\"locks\":[");
    for (int j = 0; j < size; ++j) {
      const char* name = stack->entries[j].name;
      if (j > 0) WriteStr(fd, ",");
      WriteStr(fd, "{\"name\":\"");
      if (name != nullptr) {
        sigsafe::WriteJsonEscaped(fd, name, sigsafe::StrLen(name));
      }
      WriteStr(fd, "\",\"rank\":");
      WriteU64(fd, static_cast<uint64_t>(stack->entries[j].rank));
      WriteStr(fd, "}");
    }
    WriteStr(fd, "]}");
  }
  WriteStr(fd, "]");
}

void CheckHeld(const void* mutex, const char* name) {
  if (Holds(mutex)) return;
  // A shared_mutex held SHARED by many threads records per-thread, so
  // this is exact: the calling thread itself did not acquire it.
  std::fprintf(stderr,
               "onex lock assertion failed: '%s' is not held by the "
               "calling thread\n",
               name);
  std::fflush(stderr);
  std::abort();
}

}  // namespace lock_debug
}  // namespace onex
