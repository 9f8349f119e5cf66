// OnexBase::Build runs tasks on WorkPool workers that must allocate
// nothing: a thread that allocates gets its own allocator arena, whose
// freed pages stay resident and raise the process's peak memory. This
// binary replaces the global operator new and delete with versions that
// count calls made on any thread but the one calling Build, and expects
// none. They also keep the bytes held through them, and their peak, so
// a pooled build's peak can be held against a serial build's: Build
// keeps at most one length per thread in flight, each with its Dc
// triangle. It has a binary of its own because the replacement is
// process-wide (and it stays out of AddressSanitizer builds, whose
// runtime provides operator new itself).

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/onex_base.h"
#include "datagen/generators.h"
#include "dataset/normalize.h"
#include "serial_build.h"
#include "util/work_pool.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_foreign_calls{0};
thread_local bool t_building = false;
/// Bytes held through operator new, and the most held since last reset.
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void CountCall() {
  if (g_counting.load(std::memory_order_relaxed) && !t_building) {
    g_foreign_calls.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Hold(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const auto size = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live = g_live.fetch_add(size) + size;
  int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void* Allocate(std::size_t size) {
  CountCall();
  return Hold(std::malloc(size == 0 ? 1 : size));
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  CountCall();
  const auto a = static_cast<std::size_t>(align);
  return Hold(std::aligned_alloc(a, (size + a - 1) / a * a));
}

void Release(void* p) {
  if (p == nullptr) return;
  CountCall();
  g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}

namespace onex {
namespace {

TEST(BuildAllocationTest, PoolWorkersAllocateNothing) {
  WorkPool& pool = WorkPool::Shared();
  if (pool.workers() == 0) {
    GTEST_SKIP() << "one CPU: the build runs on the calling thread alone";
  }
  // Explore's shape (TwoPattern, 128 points, lengths 16..128 step 16)
  // on fewer series: eight lengths, so the worker claims some of them.
  GenOptions gen;
  gen.num_series = 30;
  gen.length = 128;
  gen.seed = 42;
  Dataset data = MakeTwoPatterns(gen);
  MinMaxNormalize(&data);
  OnexOptions options;
  options.lengths = {16, 128, 16};

  // A worker's first lock registers the thread with the lock-order
  // checker of sanitizer builds, once per thread and not per build, so
  // the worker runs a task before counting starts.
  for (int i = 0; i < 50 && pool.worker_tasks() == 0; ++i) {
    ASSERT_TRUE(OnexBase::Build(data, options).ok());
  }
  ASSERT_GT(pool.worker_tasks(), 0u);

  t_building = true;
  const uint64_t before = pool.worker_tasks();
  g_counting.store(true);
  for (int i = 0; i < 50 && (i < 3 || pool.worker_tasks() == before); ++i) {
    auto base = OnexBase::Build(data, options);
    ASSERT_TRUE(base.ok());
  }
  g_counting.store(false);
  t_building = false;

  EXPECT_GT(pool.worker_tasks(), before) << "no task ran on a worker";
  EXPECT_EQ(g_foreign_calls.load(), 0u)
      << "operator new/delete calls off the building thread";
}

/// Bytes held through operator new at their peak while `build` runs,
/// above what was held before it.
template <class F>
int64_t PeakBytes(F build) {
  const int64_t before = g_live.load();
  g_peak.store(before);
  build();
  return g_peak.load() - before;
}

/// A build holds one length at a time on a pool without workers, and
/// on a pool with workers at most one per thread that runs tasks plus
/// one, each with its scan storage and Dc triangle. A
/// one-length-at-a-time build's peak is at least the largest Dc and at
/// least what the base keeps (K). Build holds at most K plus one Dc per
/// length in flight (it starts at the longest lengths, the serial build
/// at the shortest, so their peaks may fall at different points), so
/// without workers it stays within twice the serial peak, and on the
/// shared pool within (workers + 3) times it. Here each length's Dc triangle
/// (1-4 MB: st 1e-3 over random walks leaves every subsequence its own
/// group) outweighs what its entry keeps, so a build that held every
/// length's Dc at once would miss both bounds.
TEST(BuildAllocationTest, PeakMemoryFollowsTheThreadsNotTheLengths) {
  GenOptions gen;
  gen.num_series = 20;
  gen.length = 60;
  gen.seed = 7;
  Dataset data = MakeRandomWalk(gen);
  MinMaxNormalize(&data);
  OnexOptions options;
  options.st = 1e-3;
  options.lengths = {8, 32, 2};  // Thirteen lengths.

  const int64_t one_at_a_time =
      PeakBytes([&] { SerialBuild(data, options); });
  WorkPool caller_only(0);
  const int64_t alone = PeakBytes(
      [&] { EXPECT_TRUE(OnexBase::Build(data, options, caller_only).ok()); });
  WorkPool& pool = WorkPool::Shared();
  const int64_t pooled = PeakBytes(
      [&] { EXPECT_TRUE(OnexBase::Build(data, options, pool).ok()); });
  ASSERT_GT(one_at_a_time, 0);
  EXPECT_LE(alone, 2 * one_at_a_time) << "serial peak " << one_at_a_time;
  EXPECT_LE(pooled,
            static_cast<int64_t>(pool.workers() + 3) * one_at_a_time)
      << "serial peak " << one_at_a_time;
}

}  // namespace
}  // namespace onex
